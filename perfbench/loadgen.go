package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// client talks to one fairallocd over at most conns keep-alive
// connections.
type client struct {
	base string
	w    *world
	http *http.Client
}

func newClient(addr string, w *world, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, w: w, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what one request came back with.
type reply struct {
	status int
	err    error
	// In process only: the shard that committed a write and its epoch
	// just after the commit.
	shard int
	epoch uint64
}

// expected reports whether a status is the success status of the op.
func expected(k opKind, status int) bool {
	switch k {
	case opRegister:
		return status == http.StatusCreated
	case opRemove:
		return status == http.StatusNoContent
	default:
		return status == http.StatusOK
	}
}

type registerBody struct {
	ID     string   `json:"id"`
	Weight float64  `json:"weight"`
	Path   []string `json:"path"`
}

type shareBody struct {
	Share float64 `json:"share"`
	Epoch uint64  `json:"epoch"`
}

// do sends one op and reads the whole response.
func (c *client) do(o *op) reply {
	var req *http.Request
	var err error
	switch o.Kind {
	case opRegister:
		// Strings, a float and a string slice always marshal.
		body, _ := json.Marshal(registerBody{ID: o.ID, Weight: o.Flow.Weight, Path: c.w.names(o.Flow.Path)})
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/flows", bytes.NewReader(body))
	case opRemove:
		req, err = http.NewRequest(http.MethodDelete, c.base+"/v1/flows/"+o.ID, nil)
	default:
		req, err = http.NewRequest(http.MethodGet, c.base+"/v1/shares/"+o.ID, nil)
	}
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode >= 500 {
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated) {
		var sb shareBody
		if err := json.Unmarshal(data, &sb); err != nil {
			r.err = fmt.Errorf("decode %s reply: %w", o.Kind, err)
		}
	}
	return r
}

// sample is one executed op: when the dispatcher released it (lag
// behind its due time), when a worker sent it and when the reply was
// read, all from the phase start.
type sample struct {
	op       *op
	lag      time.Duration
	sent     time.Duration
	done     time.Duration
	reply    reply
	finished bool
}

// latency is done minus due: the wait a stall imposes on every later
// request is counted, not omitted.
func (s *sample) latency() time.Duration { return s.done - s.op.At }

func (s *sample) ok() bool {
	return s.finished && s.reply.err == nil && expected(s.op.Kind, s.reply.status)
}

// executor runs one op against a serving layer: the daemon over HTTP
// (client) or a serve.Engine in process (inproc).
type executor interface {
	do(o *op) reply
}

// hook observes each executed op (the traced run records client spans
// through it); nil records nothing.
type hook func(s *sample)

// runOpen executes ops open-loop: a dispatcher releases each op at its
// due time into a queue that conns workers drain, so a slow serving
// layer delays later requests instead of receiving fewer of them. Ops
// due at 0 (the preload) all start at once, which is a closed loop on
// conns workers. A worker holds an op until the ops it depends on (see
// dependencies) have returned.
//
// When maxBacklog > 0 and more ops than that wait for a worker, the
// phase is cut: the rest of the ops are never sent, and only the
// samples of the sent prefix are returned.
func runOpen(ex executor, conns int, ops []op, maxBacklog int, h hook) (samples []sample, cut bool) {
	samples = make([]sample, len(ops))
	for i := range ops {
		samples[i].op = &ops[i]
	}
	deps := dependencies(ops)
	var mu sync.Mutex
	returned := sync.NewCond(&mu)
	done := make([]bool, len(ops)) // guarded by mu
	queue := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				mu.Lock()
				for _, d := range deps[i] {
					for !done[d] {
						returned.Wait()
					}
				}
				mu.Unlock()
				s := &samples[i]
				s.sent = time.Since(start)
				s.reply = ex.do(s.op)
				s.done = time.Since(start)
				s.finished = true
				mu.Lock()
				done[i] = true
				mu.Unlock()
				returned.Broadcast()
				if h != nil {
					h(s)
				}
			}
		}()
	}
	sent := len(ops)
	for i := range ops {
		sleepUntil(start.Add(ops[i].At))
		if maxBacklog > 0 && len(queue) > maxBacklog {
			sent, cut = i, true
			break
		}
		samples[i].lag = time.Since(start) - ops[i].At
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples[:sent], cut
}

// dependencies lists, for each op, the earlier ops that must return
// before it is sent, as one client issuing them would order them:
//
//   - a register waits for the previous register to its shard: the
//     shard orders its flows by registration, the shares' last bits
//     depend on that order, and the correctness check needs the order
//     the generator tracked;
//   - a read waits for its flow's register when that is in the same
//     phase, so it never asks for a share not yet published;
//   - a remove waits for every earlier read of its flow, so no read
//     asks for a flow already gone.
//
// Every dependency points to an earlier op, and workers take ops in
// order, so the earliest op in flight never waits.
func dependencies(ops []op) [][]int {
	deps := make([][]int, len(ops))
	lastRegister := make(map[int]int) // shard → op index
	registered := make(map[string]int)
	reads := make(map[string][]int)
	for i, o := range ops {
		switch o.Kind {
		case opRegister:
			if j, ok := lastRegister[o.Shard]; ok {
				deps[i] = []int{j}
			}
			lastRegister[o.Shard] = i
			registered[o.ID] = i
		case opRead:
			if j, ok := registered[o.ID]; ok {
				deps[i] = []int{j}
			}
			reads[o.ID] = append(reads[o.ID], i)
		case opRemove:
			deps[i] = reads[o.ID]
		}
	}
	return deps
}

// sleepUntil blocks the calling thread in nanosleep. The runtime's
// timers wake sub-millisecond sleeps on an idle process up to a
// millisecond late, which would be generator lag on every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// hostWakeLag is how late a thread sleeping alone wakes on this host:
// the tail (≥10 samples beyond p99) of n sleeps of gap each, in ms. No
// generator can keep its schedule better than this; it is the floor
// under loadgen.lag_p99_ms.
func hostWakeLag(n int, gap time.Duration) float64 {
	lags := make([]float64, n)
	start := time.Now()
	for i := range lags {
		due := start.Add(time.Duration(i+1) * gap)
		sleepUntil(due)
		lags[i] = msOf(time.Since(due))
	}
	return tailOf(newDist(lags))
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	writes, reads dist // latency ms of successful ops
	lag           dist
	attempted     int
	failed        int
	status429     int
	status5xx     int
	firstFailure  string
	// early and late are the write p50s of the first and last
	// quarter of the phase: a backlog that grows shows as late ≫ early.
	early, late float64
}

// summarize reduces a phase of the given length to its statistics.
func summarize(samples []sample, seconds float64) phaseStats {
	var ps phaseStats
	var w, r, lag, early, late []float64
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	for i := range samples {
		s := &samples[i]
		ps.attempted++
		switch {
		case s.finished && s.reply.status == http.StatusTooManyRequests:
			ps.status429++
		case s.finished && s.reply.status >= 500:
			ps.status5xx++
		}
		if !s.ok() {
			ps.failed++
			if ps.firstFailure == "" {
				ps.firstFailure = describeFailure(s)
			}
			continue
		}
		lag = append(lag, msOf(s.lag))
		ms := msOf(s.latency())
		if s.op.isWrite() {
			w = append(w, ms)
			if s.op.At < quarter {
				early = append(early, ms)
			} else if s.op.At >= 3*quarter {
				late = append(late, ms)
			}
		} else {
			r = append(r, ms)
		}
	}
	ps.writes, ps.reads, ps.lag = newDist(w), newDist(r), newDist(lag)
	ps.early, ps.late = medianOf(early), medianOf(late)
	return ps
}

func describeFailure(s *sample) string {
	switch {
	case s.reply.err != nil:
		return fmt.Sprintf("%s %s: %v", s.op.Kind, s.op.ID, s.reply.err)
	default:
		return fmt.Sprintf("%s %s: HTTP %d", s.op.Kind, s.op.ID, s.reply.status)
	}
}

// getJSON fetches path into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// engineStats is the part of GET /v1/stats the benchmark reads.
type engineStats struct {
	Shards       uint64 `json:"shards"`
	Events       uint64 `json:"events"`
	Rebuilds     uint64 `json:"rebuilds"`
	GroupsSolved uint64 `json:"groupsSolved"`
	GroupsReused uint64 `json:"groupsReused"`
	Flows        uint64 `json:"flows"`
}

// shares fetches every published share. encoding/json prints the
// shortest decimal that round-trips and parses it back exactly, so the
// values arrive bit for bit.
func (c *client) shares() (map[string]float64, error) {
	var out struct {
		Shares map[string]float64 `json:"shares"`
	}
	err := c.getJSON("/v1/shares", &out)
	return out.Shares, err
}

func first(s []sample, _ bool) []sample { return s }
