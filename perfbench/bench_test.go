package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	for _, tc := range []struct {
		n     int
		wantV float64
		wantQ float64
	}{
		{n: 2000, wantV: 1980, wantQ: 0.99}, // 20 samples beyond p99
		{n: 1100, wantV: 1089, wantQ: 0.99}, // exactly 11 beyond, 10 strictly above
		{n: 200, wantV: 190, wantQ: 0.95},   // p99 would leave 2: fall back to p95
		{n: 11, wantV: 6, wantQ: 0.5},       // fallback below the median: report the median
		{n: 10, wantV: 5, wantQ: 0.5},       // no tail at all
	} {
		s := seq(tc.n)
		v, q := s.tail(0.99)
		if v != tc.wantV || q != tc.wantQ {
			t.Errorf("n=%d: tail = %v at q=%v, want %v at q=%v", tc.n, v, q, tc.wantV, tc.wantQ)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if q > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if m := seq(5).median(); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
}

func TestScheduleRepeatsExactly(t *testing.T) {
	for _, w := range workloads {
		wd, err := w.newWorld()
		if err != nil {
			t.Fatal(err)
		}
		gen := func(seed int64) ([]op, []op) {
			rot := newRotation(wd, seed)
			pre := rot.preload(w.Population)
			ops := rot.schedule(rand.New(rand.NewSource(seed^saltFixed)), w.FixedRate, w.ReadsPerWrite, 2*time.Second)
			return pre, ops
		}
		pa, oa := gen(7)
		pb, ob := gen(7)
		if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(oa, ob) {
			t.Fatalf("%s: seed 7 gave two different schedules", w.Name)
		}
		_, oc := gen(8)
		if reflect.DeepEqual(oa, oc) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		if len(oa) == 0 || oa[len(oa)-1].At >= 2*time.Second {
			t.Fatalf("%s: schedule of %d ops does not fit its duration", w.Name, len(oa))
		}
	}
}

func TestRotationHoldsPopulationAndNeverRepeatsIDs(t *testing.T) {
	wd, err := findWorkload("churn-dense").newWorld()
	if err != nil {
		t.Fatal(err)
	}
	rot := newRotation(wd, 1)
	rot.preload(20)
	ids := make(map[string]bool)
	for _, f := range rot.live {
		ids[f.ID] = true
	}
	ops := rot.schedule(rand.New(rand.NewSource(2)), 200, 1, time.Second)
	for _, o := range ops {
		if o.Kind == opRegister {
			if ids[o.ID] {
				t.Fatalf("flow ID %s registered twice", o.ID)
			}
			ids[o.ID] = true
		}
	}
	if n := len(rot.live); n != 20 && n != 21 {
		t.Fatalf("live population %d, want 20 or 21", n)
	}
}

func TestDependenciesOrderOneClientsOps(t *testing.T) {
	reg := func(id string, shard int) op { return op{Kind: opRegister, ID: id, Shard: shard} }
	read := func(id string) op { return op{Kind: opRead, ID: id} }
	rm := func(id string) op { return op{Kind: opRemove, ID: id} }
	ops := []op{
		reg("a", 0), // 0
		reg("b", 1), // 1
		read("a"),   // 2: after a's register
		reg("c", 0), // 3: after a's register, same shard
		read("x"),   // 4: x registered in an earlier phase
		read("x"),   // 5
		rm("x"),     // 6: after both reads of x
		rm("b"),     // 7: no reads of b
	}
	want := [][]int{nil, nil, {0}, {0}, nil, nil, {4, 5}, nil}
	if got := dependencies(ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("dependencies %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},  // overlaps a: 10..40 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent at 100
		{Name: "a.1", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// stubServer is a server with a known knee: one request at a time,
// each holding it for a fixed service time.
func stubServer(service time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
}

func TestKneeSearchFindsStubCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a stub server for several seconds")
	}
	const service = 4 * time.Millisecond // capacity 250 ops/s
	srv := stubServer(service)
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), nil, 2)
	defer c.close()
	const limitMs = 100.0
	arrivals := rand.New(rand.NewSource(1))
	knee, probes := searchKnee(100, searchStep, func(rate float64) probe {
		var ops []op
		at := 0.0
		for {
			at += arrivals.ExpFloat64() / rate
			if at >= 1.0 {
				break
			}
			ops = append(ops, op{At: time.Duration(at * float64(time.Second)), Kind: opRemove, ID: "x"})
		}
		backlog := backlogFor(rate, limitMs)
		samples, cut := runOpen(c, 2, ops, backlog, nil)
		return judge(summarize(samples, 1), cut, backlog, limitMs)
	})
	capacity := float64(time.Second / service)
	t.Logf("knee %.1f ops/s against capacity %.0f after %d probes", knee, capacity, len(probes))
	if knee < 0.6*capacity || knee > 1.05*capacity {
		t.Fatalf("knee %.1f ops/s, want within [0.6, 1.05] of the stub's capacity %.0f", knee, capacity)
	}
}

func TestSearchKneeBrackets(t *testing.T) {
	for _, start := range []float64{150, 290, 300, 310, 600} {
		knee, probes := searchKnee(start, searchStep, func(rate float64) probe {
			return probe{Pass: rate <= 300}
		})
		if knee > 300 || knee < 300/searchTol {
			t.Errorf("start %v: knee %v, want within %v of 300", start, knee, searchTol)
		}
		if len(probes) >= searchMaxProbes {
			t.Errorf("start %v: search used all %d probes", start, len(probes))
		}
	}
}

func TestRewindKeepsOnlyTheSentPrefix(t *testing.T) {
	wd, err := findWorkload("churn-dense").newWorld()
	if err != nil {
		t.Fatal(err)
	}
	rot := newRotation(wd, 1)
	rot.preload(20)
	m := rot.mark()
	ops := rot.schedule(rand.New(rand.NewSource(2)), 200, 0, time.Second)
	// Cut between a register and its paired remove.
	cut := 7
	if ops[cut-1].Kind != opRegister || ops[cut].Kind != opRemove {
		t.Fatalf("ops %d,%d are %v,%v; want a register then its remove", cut-1, cut, ops[cut-1].Kind, ops[cut].Kind)
	}
	rot.rewind(m, ops[:cut])
	if len(rot.live) != 21 || !rot.owes {
		t.Fatalf("after a cut mid-pair: %d live, owes %v; want 21 live and a remove owed", len(rot.live), rot.owes)
	}
	live := make(map[string]bool)
	for _, f := range rot.live {
		live[f.ID] = true
	}
	if !live[ops[cut].ID] {
		t.Fatalf("flow %s left the live set although its remove was never sent", ops[cut].ID)
	}
	for _, o := range ops[:cut] {
		if o.Kind == opRemove && live[o.ID] {
			t.Fatalf("flow %s is live although its remove was sent", o.ID)
		}
	}
	if next := rot.write(0); next.Kind != opRemove || next.ID != ops[cut].ID {
		t.Fatalf("next write after the rewind is %v %s, want the owed remove of %s", next.Kind, next.ID, ops[cut].ID)
	}
}

func TestVerifyCatchesOneULP(t *testing.T) {
	wd, err := findWorkload("churn-sparse").newWorld()
	if err != nil {
		t.Fatal(err)
	}
	rot := newRotation(wd, 1)
	rot.preload(2 * sparseTiles)
	orc, err := oracle(wd.topo, rot.live)
	if err != nil {
		t.Fatal(err)
	}
	pub := make(map[string]float64)
	for id, x := range orc.alloc {
		pub[string(id)] = x
	}
	if fails := orc.verify(pub); len(fails) != 0 {
		t.Fatalf("oracle's own shares fail: %v", fails)
	}
	for id, x := range pub {
		pub[id] = math.Nextafter(x, 2)
		break
	}
	if fails := orc.verify(pub); len(fails) == 0 {
		t.Fatal("a share off in its last bits passed the check")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the
// program's workload and metric tables naming the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(gated()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(doc.Workloads), len(gated()))
	}
	for i, w := range gated() {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestMeanGapCountsEverySend(t *testing.T) {
	w := &workload{FixedRate: 100, ReadsPerWrite: 4}
	// 100 write events (registers and removes) plus 400 reads per
	// second: one send every 2 ms.
	if got := meanGapMs(w); math.Abs(got-2) > 1e-12 {
		t.Fatalf("mean send gap %g ms, want 2 ms", got)
	}
	rep := newReport()
	lag := make([]float64, 100)
	for i := range lag {
		lag[i] = 2.1
	}
	checkLag(rep, w, phaseStats{lag: newDist(lag)})
	if len(rep.invalid) != 1 {
		t.Fatalf("a 2.1 ms lag p99 against a 2 ms gap flagged %d reasons, want 1", len(rep.invalid))
	}
}
