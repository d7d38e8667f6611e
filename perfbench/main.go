// Command perfbench is elpcd's benchmark. It starts the real cmd/elpcd
// binary on loopback, drives one named workload from a seeded op stream on
// two keep-alive connections in a closed loop, checks every answer, and
// prints the end-to-end metrics; with -trace 1 it instead runs the server
// in-process and prints per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload plan-hit --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and what each
// layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", planHit, "workload: plan-hit, plan-cold or fleet-durable")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length; sets the timed op count")
	trace := flag.Int("trace", 0, "1 runs the server in-process and reports per-layer metrics")
	elpcd := flag.String("elpcd", filepath.Join(".bench_build", "elpcd"), "elpcd binary")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(2)
	}()
	defer stopAll()

	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	var res result
	var notes []string
	if *trace == 1 {
		res, notes, err = traced(*elpcd, *workload, *seed, *seconds, work)
	} else {
		res, notes, err = endToEnd(*elpcd, *workload, *seed, *seconds, work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd runs a workload against the elpcd binary.
func endToEnd(bin, workload string, seed uint64, seconds int, work string) (result, []string, error) {
	var r *e2e
	switch workload {
	case planHit, planCold:
		build := buildPlanHit
		if workload == planCold {
			build = buildPlanCold
		}
		in, err := build(seed, seconds)
		if err != nil {
			return result{}, nil, err
		}
		if r, err = runPlanE2E(bin, work, in); err != nil {
			return result{}, nil, err
		}
	case fleetDurable:
		in, err := buildFleet(seed, seconds)
		if err != nil {
			return result{}, nil, err
		}
		if r, err = runFleetE2E(bin, work, in); err != nil {
			return result{}, nil, err
		}
	default:
		return result{}, nil, fmt.Errorf("unknown workload %q", workload)
	}
	m, notes, err := r.metrics()
	if err != nil {
		return result{}, nil, err
	}
	return result{
		Correct:   r.tally.failed == 0 && r.finalErr == nil,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   m,
	}, notes, nil
}
