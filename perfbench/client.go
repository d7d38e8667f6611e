package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the closed loop's client count: two keep-alive connections, one
// per core of the reference machine. Each client waits for its answer
// before sending again, as planners and tenant controllers do.
const conns = 2

// requestTimeout bounds one request; a request that hits it fails.
const requestTimeout = 30 * time.Second

// client sends requests to one server over keep-alive connections. With
// a recorder it records a span per op and tells the server, through
// headers, which op and client span a request belongs to.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder
}

// Headers that carry the op id and the client span across the socket in
// the traced run.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one answered (or failed) request and its client-observed
// latency, which ends once the whole body has been read.
type reply struct {
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// do sends one request outside any op.
func (c *client) do(method, path string, parts ...[]byte) reply {
	return c.doOp(-1, method, path, parts...)
}

// doOp sends op's request; body parts are sent back to back.
func (c *client) doOp(op int, method, path string, parts ...[]byte) reply {
	var n int64
	readers := make([]io.Reader, len(parts))
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
		n += int64(len(p))
	}
	var body io.Reader
	if len(parts) > 0 {
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return reply{err: err}
	}
	req.ContentLength = n
	if n > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := -1
	if c.rec != nil && op >= 0 {
		sp = c.rec.begin("client", -1, op)
		req.Header.Set(opHeader, strconv.Itoa(op))
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.end(sp)
		return reply{err: err, latency: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	c.rec.end(sp)
	return reply{status: resp.StatusCode, body: b, err: err, latency: lat}
}

// judge turns a reply into an op outcome: nil when the op was answered and
// its answer checked out. Transport errors and timeouts, shed (429) and
// server errors (5xx) fail before the answer is looked at; every other
// status goes to check, which knows which statuses are correct answers.
func judge(r reply, check func(status int, body []byte) error) error {
	var ne net.Error
	switch {
	case errors.As(r.err, &ne) && ne.Timeout():
		return fmt.Errorf("timeout: %v", r.err)
	case r.err != nil:
		return fmt.Errorf("transport: %v", r.err)
	case r.status == http.StatusTooManyRequests:
		return fmt.Errorf("shed: status 429")
	case r.status >= 500:
		return fmt.Errorf("server error: status %d: %s", r.status, trim(r.body))
	}
	return check(r.status, r.body)
}

func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// tally counts attempted and failed ops and keeps the failure reasons.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	first     string
}

// record counts one op with its outcome (nil = answered and checked).
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	kind, _, _ := strings.Cut(err.Error(), ":")
	t.reasons[kind]++
	if t.first == "" {
		t.first = err.Error()
	}
}

// okFrac is the share of attempted ops answered and checked.
func (t *tally) okFrac() float64 {
	return ratio(float64(t.attempted-t.failed), float64(t.attempted))
}

// summary describes the failures, if any.
func (t *tally) summary() string {
	if t.failed == 0 {
		return "no failures"
	}
	kinds := make([]string, 0, len(t.reasons))
	for k, n := range t.reasons {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(kinds)
	return fmt.Sprintf("%d failed (%s); first: %s", t.failed, strings.Join(kinds, " "), t.first)
}

// closedLoop runs ops 0..n-1 on `workers` clients, each taking the next op
// as soon as its previous one is answered. A panic in an op is returned as
// an error once every client has stopped.
func closedLoop(n, workers int, op func(i int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var perr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					perr = fmt.Errorf("op panicked: %v", r)
					mu.Unlock()
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return perr
}
