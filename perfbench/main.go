// Command perfbench is the repository's end-to-end benchmark. It measures
// the two paths a user of this reproduction waits on: the paper pipeline
// (core.Study regenerating Table 1, Figure 1, Figure 2 and Table 3) and
// the rdnsd history service (rdnsserve over a histstore, queried through
// rdnsclient while a writer ingests new days). It drives every layer only
// through its public functions and checks every answer against values it
// computes itself.
//
//	perfbench -workload study -seed 1 -seconds 26 -trace 0
//	perfbench -spread 5
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With -trace 0 it carries the end-to-end metrics, with -trace 1 the
// per-layer ones. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: study, serve-read or serve-ingest")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (universe, query stream)")
	seconds := flag.Int("seconds", 26, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and reports the per-layer metrics")
	spread := flag.Int("spread", 0, "run every workload this many times (seeds 1..k) and report medians and quartiles")
	root := flag.String("root", ".", "repository root; scratch stores go under its .bench_build/")
	flag.Parse()

	if *spread > 0 {
		if err := runSpread(*root, *spread, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: w,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		scratch:  scratch,
		out:      map[string]metric{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	err = r.execute()
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		if err := r.tr.writeSpans(filepath.Join(*root, ".bench_build", "perfbench-spans-"+w.name+".jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
	}
	r.print(os.Stdout)
}

// workload names one traffic mix. A run is a fixed number of whole
// rounds; each round is one study pass, then a read burst, then an
// ingest burst, so every run reports every metric and every metric's
// samples are spread over the whole run (the host's speed drifts over
// seconds, and a metric sampled in one short window drifted with it).
// The workload sets the rounds and how much of the budget the bursts
// take; its focus is the phase that gets most of the time, and defines
// what one op is for the per-op cost metrics.
type workload struct {
	name   string
	focus  string  // "study", "read" or "ingest"
	rounds int     // whole rounds per run
	read   float64 // share of the budget spent in read bursts
	ingest float64 // share of the budget spent in ingest bursts
}

var workloads = map[string]workload{
	"study":        {name: "study", focus: "study", rounds: 3, read: 0.3, ingest: 0.05},
	"serve-read":   {name: "serve-read", focus: "read", rounds: 2, read: 0.35, ingest: 0.2},
	"serve-ingest": {name: "serve-ingest", focus: "ingest", rounds: 2, ingest: 0.45},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark process.
type run struct {
	workload workload
	seed     int64
	budget   time.Duration
	scratch  string
	tr       *tracer // nil on untraced runs

	attempted, failed int
	failures          []string
	out               map[string]metric

	t            tally
	ingestRounds int // names each ingest round's store copy

	bytesPerRecord []float64 // traced: tail bytes an append adds per record
}

// tally holds the samples of a run's rounds.
type tally struct {
	stages      [4][]float64 // stage wall times, s
	reads       readResult   // read bursts
	reader      readResult   // the ingest bursts' reader
	ingest      []float64    // ingest op latencies, ms
	ingestCache struct{ hits, misses, recon uint64 }
	focus       phaseCost
	focusWalls  []float64 // focus op wall times, ms
}

func (r *run) set(name string, v float64, unit string) { r.out[name] = metric{Value: v, Unit: unit} }

// op records one attempted operation and whether its answer checked out.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// execute sets the serving stack up several times (timed), then runs the
// control phases and the focus phase until the budget is spent.
func (r *run) execute() error {
	// Set-up is timed three times and reported as the median, so a
	// single slow set-up does not move setup_s. Only the last one is kept.
	var env *serveEnv
	var setups []float64
	for i := 0; i < 3; i++ {
		if env != nil {
			env.close()
		}
		settle()
		t0 := time.Now()
		var err error
		env, err = setupServe(r, i)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	r.set("setup_s", median(setups), "s")

	env.indexTruth()
	truth, err := newStudyTruth(r.seed)
	if err != nil {
		return err
	}

	// A traced run pairs each traced round with an untraced one, whose
	// focus ops are the base of trace.overhead_ratio. The pairs alternate
	// which goes first, so warm-up and the host's drift fall on both
	// alike. Only the traced rounds feed the reported metrics and the CPU
	// profile.
	var base []float64
	for i := 0; i < r.workload.rounds; i++ {
		if r.tr != nil && i%2 == 0 {
			if err := r.untracedRound(env, truth, &base); err != nil {
				return err
			}
		}
		if err := r.tracedRound(env, truth); err != nil {
			return err
		}
		if r.tr != nil && i%2 == 1 {
			if err := r.untracedRound(env, truth, &base); err != nil {
				return err
			}
		}
	}

	t := &r.t
	for i, name := range stageMetrics {
		r.set(name, median(t.stages[i]), "s")
	}
	if r.workload.focus == "ingest" {
		r.setQueryMetrics(t.reader)
	} else {
		r.setQueryMetrics(t.reads)
	}
	r.set("ingest.p50_ms", median(t.ingest), "ms")
	c := t.ingestCache
	r.set("ingest.cache_hit_ratio", float64(c.hits)/float64(max(1, c.hits+c.misses)), "ratio")
	r.set("ingest.reconstructions_per_query", float64(c.recon)/float64(max(1, t.reader.queries)), "count")
	r.set("cpu_ms_per_op", t.focus.cpuMS/float64(t.focus.ops), "ms")
	r.set("alloc_kb_per_op", t.focus.allocKB/float64(t.focus.ops), "KB")
	r.set("max_rss_mb", maxRSSMB(), "MB")
	if r.tr != nil {
		r.set("trace.overhead_ratio", median(t.focusWalls)/median(base), "ratio")
		return r.traceLayers(env, truth)
	}
	return nil
}

// tracedRound runs one round that counts towards the reported metrics,
// under the CPU profile if the run is traced.
func (r *run) tracedRound(env *serveEnv, truth *studyTruth) error {
	if r.tr == nil {
		return r.round(env, truth)
	}
	r.tr.startProfile()
	err := r.round(env, truth)
	if _, perr := r.tr.stopProfile(); err == nil {
		err = perr
	}
	return err
}

// untracedRound runs one round of a traced run without the tracer and
// apart from the run's tally, adding its focus op walls to base.
func (r *run) untracedRound(env *serveEnv, truth *studyTruth, base *[]float64) error {
	tr, kept := r.tr, r.t
	r.tr, r.t = nil, tally{}
	err := r.round(env, truth)
	*base = append(*base, r.t.focusWalls...)
	r.tr, r.t = tr, kept
	return err
}

// round runs one study pass, one read burst and one ingest burst, the
// bursts sized by the workload's shares of the budget.
func (r *run) round(env *serveEnv, truth *studyTruth) error {
	w, t := r.workload, &r.t
	burst := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * float64(r.budget) / float64(w.rounds)))
	}
	cost, wall, err := r.studyPhase(truth)
	if err != nil {
		return err
	}
	if w.focus == "study" {
		t.focus.merge(cost)
		t.focusWalls = append(t.focusWalls, wall)
	}
	if w.read > 0 {
		cost, res := r.readPhase(env, burst(w.read))
		if w.focus == "read" {
			t.focus.merge(cost)
			t.focusWalls = append(t.focusWalls, res.lat.all()...)
		}
	}
	if w.ingest > 0 {
		n := len(t.ingest)
		cost, err := r.ingestPhase(env, burst(w.ingest))
		if err != nil {
			return err
		}
		if w.focus == "ingest" {
			t.focus.merge(cost)
			t.focusWalls = append(t.focusWalls, t.ingest[n:]...)
		}
	}
	return nil
}

// settle collects garbage before a timed section, so a section does not
// pay for the garbage of the one before it. Freed pages stay mapped:
// returning them to the OS made every section pay page faults again and
// varied the timings more.
func settle() { runtime.GC() }

// print writes a human-readable summary and, last, the JSON result line.
func (r *run) print(f *os.File) {
	names := endToEnd
	if r.tr != nil {
		names = perLayer()
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, msg := range r.failures {
		fmt.Fprintln(f, "FAILED:", msg)
	}
	fmt.Fprintf(f, "workload %s seed %d: attempted %d, failed %d\n", r.workload.name, r.seed, r.attempted, r.failed)
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		m, ok := r.out[n]
		if !ok {
			m = metric{Value: 0, Unit: unitOf(n)}
		}
		res.Metrics[n] = m
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(f, string(line))
}

// endToEnd lists the metrics an untraced run reports (BENCHMARK.json
// declares the same names, units and bounds).
var endToEnd = []string{
	"setup_s", "table1_s", "fig1_s", "fig2_s", "table3_s",
	"qps", "at.p50_ms", "range.p50_ms", "churn.p50_ms", "name.p50_ms", "query.p99_ms",
	"ingest.p50_ms", "cpu_ms_per_op", "alloc_kb_per_op", "max_rss_mb",
}
