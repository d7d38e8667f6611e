package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is the number of samples a reported percentile must have beyond
// it; a tail estimated from fewer points moves from run to run.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest rank.
// It refuses a tail supported by fewer than minTail samples beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	return sorted[idx], nil
}

// median returns the median of xs, leaving xs as it was; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// exposition is one scrape of the Prometheus text format: series name
// (with labels, as printed) to value.
type exposition map[string]float64

// parseExposition reads the Prometheus text format that GET /metrics and
// telemetry.Registry.WritePrometheus produce.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histDelta returns the observation count and summed seconds a histogram
// family gained between two scrapes (all label sets together, or one label
// set when the name carries it).
func histDelta(before, after exposition, name string) (count, sum float64) {
	family, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family, labels = name[:i], name[i:]
	}
	for series, v := range after {
		d := v - before[series]
		switch {
		case series == family+"_count"+labels, labels == "" && strings.HasPrefix(series, family+"_count{"):
			count += d
		case series == family+"_sum"+labels, labels == "" && strings.HasPrefix(series, family+"_sum{"):
			sum += d
		}
	}
	return count, sum
}

// counterDelta returns how much one counter series (or, without labels,
// every series of the family) grew between two scrapes.
func counterDelta(before, after exposition, name string) float64 {
	sum := 0.0
	for series, v := range after {
		if series == name || (!strings.Contains(name, "{") && strings.HasPrefix(series, name+"{")) {
			sum += v - before[series]
		}
	}
	return sum
}
