package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// env is what every run needs from its surroundings.
type env struct {
	daemonBin string    // fairallocd binary
	work      string    // per-run scratch directory inside the checkout
	traces    string    // where traced runs write their spans
	conns     int       // HTTP connections (and in-process workers)
	out       io.Writer // human-readable report
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// lagFraction bounds loadgen.lag_p99_ms as a share of the mean gap
// between scheduled sends. Past it the run is flagged invalid: its
// latencies measure the generator (or a host stealing its CPU) as much
// as the daemon. The flag does not make the outputs incorrect.
const lagFraction = 1.0

// rounds is how many times an untraced run alternates a fixed-rate
// segment, a knee search and a simulation. On a shared host the CPU a
// run gets drifts over seconds; the median of per-round figures keeps
// one slow stretch from setting a run's result.
const rounds = 8

// plan splits a run's --seconds across its measured phases.
type plan struct {
	segment time.Duration // one round's fixed-rate segment
	probe   time.Duration // one knee-search probe
	traced  time.Duration // each pass of the traced run
}

// planFor gives each round an equal share of the seconds: 40% of it
// to the fixed-rate segment, about as much to a knee search of some
// five probes, and the rest to the correctness checks and the
// simulation.
func planFor(seconds float64) plan {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	round := seconds / rounds
	return plan{
		segment: sec(0.4 * round),
		probe:   max(sec(0.3), sec(0.08*round)),
		traced:  sec(0.25 * seconds),
	}
}

// Seed salts keep each phase's arrival stream independent of the flow
// content stream, so adding a probe never shifts the fixed phase.
const (
	saltFixed = 0x5eed0001
	saltProbe = 0x5eed0002
)

// session is one daemon with the generator's model of its live set.
type session struct {
	d   *daemon
	c   *client
	rot *rotation
}

// setUp starts fairallocd on the workload's spec and preloads the base
// population, returning the elapsed set-up time.
func setUp(e *env, w *workload, wd *world, spec string, seed int64, dataDir string, rep *report) (*session, float64, error) {
	rot := newRotation(wd, seed)
	pre := rot.preload(w.Population)
	t0 := time.Now()
	d, err := startDaemon(e.daemonBin, spec, dataDir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.addr, wd, e.conns)
	ps := summarize(first(runOpen(c, e.conns, pre, 0, nil)), 0)
	elapsed := time.Since(t0).Seconds()
	rep.count(ps)
	return &session{d: d, c: c, rot: rot}, elapsed, nil
}

func (s *session) close() {
	s.c.close()
	if err := s.d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// writeSpec writes the daemon's -spec file into the scratch directory.
func writeSpec(e *env, wd *world) (string, error) {
	data, err := json.Marshal(wd.spec())
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.work, "spec.json")
	return path, os.WriteFile(path, data, 0o644)
}

func dataDirFor(e *env, w *workload, tag string) string {
	if !w.Durable {
		return ""
	}
	return filepath.Join(e.work, "data-"+tag)
}

// verifyLive fetches the published shares and compares them with the
// oracle on the tracked live set; the pair is an input of phase 2.
func verifyLive(s *session, w *workload, wd *world, rep *report) (served, error) {
	pub, err := s.c.shares()
	if err != nil {
		return served{}, err
	}
	orc, err := oracle(wd.topo, s.rot.live)
	if err != nil {
		return served{}, err
	}
	rep.fail(orc.verify(pub)...)
	return served{c: orc, pub: pub}, nil
}

// runUntraced is the --trace 0 run: set-up (setupReps times), then
// rounds of a fixed-rate segment, a knee search and a simulation of
// the flow sets checked in the round. Each check compares the daemon's
// shares with the oracle; one follows every segment and every probe.
func runUntraced(e *env, w *workload, seed int64, seconds float64) (*report, error) {
	rep := newReport()
	pl := planFor(seconds)
	wd, err := w.newWorld()
	if err != nil {
		return nil, err
	}
	spec, err := writeSpec(e, wd)
	if err != nil {
		return nil, err
	}
	hostLag := hostWakeLag(1000, 2*time.Millisecond)
	var setups []float64
	var s *session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		var el float64
		s, el, err = setUp(e, w, wd, spec, seed, dataDirFor(e, w, fmt.Sprint(i)), rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, el)
	}
	defer s.close()

	fixedArrivals := rand.New(rand.NewSource(seed ^ saltFixed))
	probeArrivals := rand.New(rand.NewSource(seed ^ saltProbe))
	var all []sample
	var writeP50, readP50, knees, simRates []float64
	var daemonRSS, simSetup float64
	start, step := w.SearchFrom, searchStep
	for r := 0; r < rounds; r++ {
		// Collect the previous round's garbage, most of it the
		// simulation's, now, so the generator's GC does not run during
		// the measured segment and delay its sends.
		runtime.GC()
		t0 := time.Now()
		ops := s.rot.schedule(fixedArrivals, w.FixedRate, w.ReadsPerWrite, pl.segment)
		samples, _ := runOpen(s.c, e.conns, ops, 0, nil)
		ps := summarize(samples, pl.segment.Seconds())
		rep.count(ps)
		all = append(all, samples...)
		writeP50 = append(writeP50, ps.writes.median())
		readP50 = append(readP50, ps.reads.median())
		sv, err := verifyLive(s, w, wd, rep)
		if err != nil {
			return nil, err
		}
		checked := []served{sv}
		if r == 0 {
			// Peak RSS at the fixed rate, before any probe overloads
			// the daemon.
			if daemonRSS, err = s.d.peakRSSMB(); err != nil {
				return nil, err
			}
		}

		var checkErr error
		knee, probes := searchKnee(start, step, func(rate float64) probe {
			p := tryRate(s, e, w, probeArrivals, rate, pl.probe, rep)
			sv, err := verifyLive(s, w, wd, rep)
			checked = append(checked, sv)
			checkErr = errors.Join(checkErr, err)
			return p
		})
		if checkErr != nil {
			return nil, checkErr
		}
		tSearch := time.Now()
		printProbes(e, r, knee, probes)
		knees = append(knees, knee)
		if knee > 0 {
			start, step = knee, searchStepNear
		}

		so, err := simulate(spread(checked, w.SimSets), seed, w.SimSeconds, r == 0, false)
		if err != nil {
			return nil, err
		}
		rep.fail(so.fails...)
		simRates = append(simRates, so.simPerS)
		if r == 0 {
			simSetup = so.setupS
		}
		fmt.Fprintf(e.out, "  round %d took %.1f s (sim %.1f s), fixed-rate generator lag p99 %.3f ms\n",
			r, time.Since(t0).Seconds(), time.Since(tSearch).Seconds(), tailOf(ps.lag))
	}

	ps := summarize(all, 0)
	recordLatencies(rep, ps)
	rep.set("write_p50_ms", medianOf(writeP50))
	rep.set("read_p50_ms", medianOf(readP50))
	checkLag(rep, w, ps)
	fmt.Fprintf(e.out, "  generator lag p99 %.3f ms against a %.3f ms mean send gap; a thread sleeping alone on this host woke p99 %.3f ms late\n",
		tailOf(ps.lag), meanGapMs(w), hostLag)
	knee := medianOf(knees)
	if knee == 0 {
		rep.invalid = append(rep.invalid, fmt.Sprintf("no probed write rate met the %g ms limit", w.LimitMs))
	}
	rep.set("max_write_rate_eps", knee)
	rep.set("sim_simsec_per_s", medianOf(simRates))
	rep.set("setup_s", medianOf(setups)+simSetup)
	rep.set("peak_rss_mb", daemonRSS)
	rep.set("failed_frac", rep.failedFrac())
	return rep, nil
}

func printProbes(e *env, round int, knee float64, probes []probe) {
	fmt.Fprintf(e.out, "  round %d knee %.1f events/s:", round, knee)
	for _, p := range probes {
		mark := "+"
		if !p.Pass {
			mark = "-"
		}
		fmt.Fprintf(e.out, " %s%.0f", mark, p.Rate)
	}
	fmt.Fprintln(e.out)
}

func recordLatencies(rep *report, ps phaseStats) {
	w99, wq := ps.writes.tail(0.99)
	r99, rq := ps.reads.tail(0.99)
	rep.set("write_p99_ms", w99)
	rep.set("read_p99_ms", r99)
	rep.set("loadgen.lag_p99_ms", tailOf(ps.lag))
	rep.tailNote = fmt.Sprintf("write tail is p%.1f of %d samples, read tail p%.1f of %d; generator lag p50 %.3f p90 %.3f ms",
		100*wq, len(ps.writes), 100*rq, len(ps.reads), ps.lag.median(), ps.lag.at(0.9))
}

func tailOf(d dist) float64 { v, _ := d.tail(0.99); return v }

// checkLag marks the run invalid when the generator itself ran late
// by more than lagFraction of the mean gap between scheduled sends.
func checkLag(rep *report, w *workload, ps phaseStats) {
	if lag, gapMs := tailOf(ps.lag), meanGapMs(w); lag > lagFraction*gapMs {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator lag p99 %.3f ms exceeds %g times the %.3f ms mean send gap",
			lag, lagFraction, gapMs))
	}
}

// meanGapMs is the mean gap between scheduled sends at the fixed rate:
// every register, remove and read is one send.
func meanGapMs(w *workload) float64 {
	return 1000 / (w.FixedRate * (1 + w.ReadsPerWrite))
}

// tryRate is one knee-search probe at an offered write rate.
func tryRate(s *session, e *env, w *workload, arrivals *rand.Rand, rate float64, dur time.Duration, rep *report) probe {
	m := s.rot.mark()
	ops := s.rot.schedule(arrivals, rate, w.ReadsPerWrite, dur)
	// The check before the probe left garbage; collect it first.
	runtime.GC()
	backlog := backlogFor(rate*(1+w.ReadsPerWrite), w.LimitMs)
	samples, cut := runOpen(s.c, e.conns, ops, backlog, nil)
	if cut {
		s.rot.rewind(m, ops[:len(samples)])
	}
	ps := summarize(samples, dur.Seconds())
	rep.count(ps)
	return judge(ps, cut, backlog, w.LimitMs)
}

// backlogFor is the queue depth at which a probe is cut: twice the ops
// the offered rate brings in one latency limit, so the newest queued
// op is already past the limit.
func backlogFor(opsPerSec, limitMs float64) int {
	return max(16, int(2*opsPerSec*limitMs/1000))
}

// judge decides a probe: no failed op, no cut, write p99 within the
// limit, and no backlog growing from the first quarter to the last.
func judge(ps phaseStats, cut bool, backlog int, limitMs float64) probe {
	p99, q := ps.writes.tail(0.99)
	switch {
	case ps.failed > 0:
		return probe{Why: ps.firstFailure}
	case cut:
		return probe{Why: fmt.Sprintf("backlog passed %d queued ops", backlog)}
	case p99 > limitMs:
		return probe{Why: fmt.Sprintf("write p%.1f %.2f ms > %g ms", 100*q, p99, limitMs)}
	case ps.late > 3*ps.early && ps.late > limitMs/2:
		return probe{Why: fmt.Sprintf("backlog grew: write p50 %.2f ms in the first quarter, %.2f ms in the last", ps.early, ps.late)}
	}
	return probe{Pass: true}
}

// spread picks n of the sets, evenly from first to last.
func spread(sets []served, n int) []served {
	if n >= len(sets) {
		return sets
	}
	out := make([]served, n)
	for i := range out {
		out[i] = sets[i*(len(sets)-1)/max(n-1, 1)]
	}
	return out
}
