package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// cpuModules are the internal/ packages the CPU profile is folded into;
// cpu.other_ms holds the rest and cpu.runtime_ms what has no internal
// caller at all.
var cpuModules = []string{
	"core", "netsim", "scan", "scanengine", "dataset", "dynamicity", "privleak",
	"names", "dnswire", "ipam", "dhcp", "dhcpwire", "dnsserver", "dnsclient",
	"fabric", "icmp", "reactive", "simclock", "histstore", "rdnsserve",
	"rdnsclient", "telemetry", "obs", "runtime", "other",
}

// layerUnits lists the per-layer metrics (BENCHMARK.json declares the
// same names) with their units.
var layerUnits = map[string]string{
	"netsim.records":                      "count",
	"netsim.records_at_ms":                "ms",
	"netsim.filler_ms":                    "ms",
	"scanengine.scan_ms":                  "ms",
	"scanengine.self_ms":                  "ms",
	"dataset.observe_ms":                  "ms",
	"dynamicity.analyze_ms":               "ms",
	"privleak.observe_ms":                 "ms",
	"simclock.pending_peak":               "count",
	"fabric.datagrams":                    "count",
	"fabric.icmp":                         "count",
	"histstore.at_us":                     "us",
	"histstore.range_us":                  "us",
	"histstore.churn_us":                  "us",
	"histstore.findname_us":               "us",
	"histstore.cache_hit_ratio":           "ratio",
	"histstore.reconstructions_per_query": "count",
	"ingest.cache_hit_ratio":              "ratio",
	"ingest.reconstructions_per_query":    "count",
	"rdnsserve.handler_us":                "us",
	"http.overhead_us":                    "us",
	"telemetry.tax_ratio":                 "ratio",
	"histstore.append_ms":                 "ms",
	"histstore.compact_ms":                "ms",
	"rdnsserve.reload_ms":                 "ms",
	"histstore.bytes_per_record":          "B",
	"trace.overhead_ratio":                "ratio",
}

func perLayer() []string {
	var out []string
	for n := range layerUnits {
		out = append(out, n)
	}
	for _, m := range cpuModules {
		out = append(out, "cpu."+m+"_ms")
	}
	return out
}

func unitOf(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "ms"
}

// traceLayers reports the traced rounds' CPU profile and measures each
// layer by calling it directly on the inputs the phases used.
func (r *run) traceLayers(e *serveEnv, truth *studyTruth) error {
	for _, m := range cpuModules {
		r.set("cpu."+m+"_ms", 0, "ms")
	}
	for m, ms := range r.tr.cpuMS {
		if !slices.Contains(cpuModules, m) {
			m = "other"
		}
		r.set("cpu."+m+"_ms", r.out["cpu."+m+"_ms"].Value+ms, "ms")
	}
	if err := r.traceStudy(truth); err != nil {
		return err
	}
	if err := r.traceSupplemental(truth); err != nil {
		return err
	}
	if err := r.traceRead(e); err != nil {
		return err
	}
	r.set("histstore.append_ms", median(r.tr.durations("histstore.Store.Append")), "ms")
	r.set("histstore.compact_ms", median(r.tr.durations("histstore.Store.CompactWriter")), "ms")
	r.set("rdnsserve.reload_ms", median(r.tr.durations("rdnsserve.Server.Reload")), "ms")
	r.set("histstore.bytes_per_record", median(r.bytesPerRecord), "B")
	return nil
}

// traceStudy times, for one pass's inputs, the layer calls the study
// stages make: record evaluation at every Table 1 and Figure 1 instant,
// the filler and engine sweeps of the Figure 2 days, dataset aggregation,
// the dynamicity heuristic and the privacy-leak analyzer.
func (r *run) traceStudy(truth *studyTruth) error {
	tr, cfg, u := r.tr, truth.cfg, truth.u
	var instants []time.Time
	for d := cfg.Rapid7Start; !d.After(cfg.Rapid7End); d = d.AddDate(0, 0, 7) {
		instants = append(instants, d.Add(snapshotTime))
	}
	for d := cfg.OpenINTELStart; !d.After(cfg.OpenINTELEnd); d = d.AddDate(0, 0, 1) {
		instants = append(instants, d.Add(snapshotTime))
	}
	for d := cfg.DynamicityStart; !d.After(cfg.DynamicityEnd); d = d.AddDate(0, 0, 1) {
		instants = append(instants, d.Add(snapshotTime))
	}
	root := tr.begin("replay.netsim.records", 0)
	records := 0
	var recordsAt float64
	for _, at := range instants {
		for _, n := range u.Networks {
			recordsAt += tr.timed("netsim.Network.RecordsAt", root, func() {
				n.RecordsAt(at, func(netsim.Record) { records++ })
			})
		}
	}
	tr.end(root)
	r.set("netsim.records", float64(records), "count")
	r.set("netsim.records_at_ms", recordsAt*1000, "ms")

	// The Figure 2 days: what netsim costs per day, and what the engine
	// sweep that PrivLeak runs costs around it.
	var filler, leakNets, sweep float64
	var fillerRecs []netsim.Record
	ctx := context.Background()
	for d := 0; d < cfg.LeakWindowDays; d++ {
		at := cfg.DynamicityEnd.AddDate(0, 0, d+1-cfg.LeakWindowDays).Add(snapshotTime)
		root := tr.begin("replay.leak-day", 0)
		for _, f := range u.Filler {
			filler += tr.timed("netsim.FillerBlock.Records", root, func() {
				f.Records(func(rec netsim.Record) {
					if d == 0 {
						fillerRecs = append(fillerRecs, rec)
					}
				})
			})
		}
		for _, n := range u.Networks {
			leakNets += tr.timed("netsim.Network.RecordsAt", root, func() { n.RecordsAt(at, func(netsim.Record) {}) })
		}
		var err error
		sweep += tr.timed("scan.Snapshot", root, func() { _, err = scan.Snapshot(ctx, scan.Campaign{Universe: u}, at) })
		tr.end(root)
		if err != nil {
			return fmt.Errorf("trace sweep: %w", err)
		}
	}
	r.set("netsim.filler_ms", filler*1000, "ms")
	r.set("scanengine.scan_ms", sweep*1000, "ms")
	r.set("scanengine.self_ms", (sweep-filler-leakNets)*1000, "ms")

	// dataset: the Table 1 observations (filler once, networks per
	// instant), fed to a stats collector.
	coll := dataset.NewStatsCollector("trace")
	observe := tr.timed("dataset.StatsCollector.Observe", 0, func() {
		for _, rec := range fillerRecs {
			coll.Observe(cfg.Rapid7Start, rec.IP, rec.HostName)
		}
	})
	for _, at := range instants[:len(instants)-dynamicityDaysIn(cfg)] {
		recs := truth.dynamicRecords(at)
		observe += tr.timed("dataset.StatsCollector.Observe", 0, func() {
			for ip, name := range recs {
				coll.Observe(at, ip, name)
			}
		})
	}
	r.set("dataset.observe_ms", observe*1000, "ms")

	s, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	series := s.DynamicitySeries()
	var dyn *dynamicity.Result
	r.set("dynamicity.analyze_ms", 1000*tr.timed("dynamicity.Analyze", 0, func() {
		dyn = dynamicity.Analyze(series, dynamicity.PaperConfig())
	}), "ms")

	dynSet := map[dnswire.Prefix]bool{}
	for _, p := range dyn.DynamicPrefixes {
		dynSet[p] = true
	}
	a := privleak.NewAnalyzer(cfg.LeakThresholds)
	leak := tr.timed("privleak.Analyzer.Observe", 0, func() {
		for _, rec := range fillerRecs {
			a.Observe(privleak.RecordObservation{IP: rec.IP, HostName: rec.HostName, Dynamic: dynSet[rec.IP.Slash24()]})
		}
	})
	type key struct {
		ip   dnswire.IPv4
		name dnswire.Name
	}
	seen := map[key]bool{}
	for d := 0; d < cfg.LeakWindowDays; d++ {
		at := cfg.DynamicityEnd.AddDate(0, 0, d+1-cfg.LeakWindowDays).Add(snapshotTime)
		recs := truth.dynamicRecords(at)
		leak += tr.timed("privleak.Analyzer.Observe", 0, func() {
			for ip, name := range recs {
				if k := (key{ip, name}); !seen[k] {
					seen[k] = true
					a.Observe(privleak.RecordObservation{IP: ip, HostName: name, Dynamic: dynSet[ip.Slash24()]})
				}
			}
		})
	}
	a.Finish()
	r.set("privleak.observe_ms", leak*1000, "ms")
	return nil
}

func dynamicityDaysIn(cfg core.Config) int {
	return int(cfg.DynamicityEnd.Sub(cfg.DynamicityStart)/(24*time.Hour)) + 1
}

// traceSupplemental replays the Table 3 run with the wiring of
// core.Study.Supplemental, but on a clock and fabric the benchmark owns,
// so it can sample the event queue and count traffic. Checked: the clock
// reaches the window end.
func (r *run) traceSupplemental(truth *studyTruth) error {
	cfg := truth.cfg
	s, err := core.NewStudy(cfg) // a fresh universe: live mode mutates zone state
	if err != nil {
		return err
	}
	clock := simclock.NewSimulated(cfg.SupplementalStart)
	fab := fabric.New(clock, fabric.Config{Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: int64(cfg.Seed) + 5})
	var started []*netsim.Network
	for _, name := range netsim.SupplementalNames() {
		n, ok := s.Universe.NetworkByName(name)
		if !ok {
			continue
		}
		n.SetDNSFailure(dnsserver.FailureMode{ServFailRate: 0.005, DropRate: 0.003, Seed: int64(cfg.Seed) + 77})
		if err := n.Start(fab); err != nil {
			continue
		}
		started = append(started, n)
	}
	defer func() {
		for _, n := range started {
			n.Stop()
		}
	}()
	engine, err := reactive.NewEngine(fab, reactive.Config{
		Targets:     s.SupplementalTargets(),
		VantageICMP: dnswire.MustIPv4("198.51.100.10"),
		VantageDNS:  dnswire.MustIPv4("198.51.100.11"),
		DNSRetries:  1,
	})
	if err != nil {
		return err
	}
	if err := engine.Start(); err != nil {
		return err
	}
	peak := 0
	root := r.tr.begin("replay.supplemental", 0)
	for t := cfg.SupplementalStart; t.Before(cfg.SupplementalEnd); {
		t = t.Add(5 * time.Minute)
		if t.After(cfg.SupplementalEnd) {
			t = cfg.SupplementalEnd
		}
		r.tr.timed("simclock.Simulated.AdvanceTo", root, func() { clock.AdvanceTo(t) })
		peak = max(peak, clock.Pending())
	}
	r.tr.end(root)
	engine.Stop()
	var clockErr error
	if !clock.Now().Equal(cfg.SupplementalEnd) {
		clockErr = fmt.Errorf("supplemental replay: clock at %s, window ends %s", clock.Now(), cfg.SupplementalEnd)
	}
	r.op(clockErr)
	st := fab.Stats()
	r.set("simclock.pending_peak", float64(peak), "count")
	r.set("fabric.datagrams", float64(st.DatagramsSent), "count")
	r.set("fabric.icmp", float64(st.ICMPSent), "count")
	return nil
}

// traceRead replays the first cycles of the read stream (the one the
// first read client sends) four ways, each on a freshly opened store so
// all see the same cache history: direct histstore calls, rdnsd's
// handler in process with its default sink and tracer, the same handler
// bare, and the default handler over loopback HTTP.
func (r *run) traceRead(e *serveEnv) error {
	const cycles = 300
	stream := e.stream(cycles)
	ctx := context.Background()

	direct, err := openServed(e.baseDir, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	byKind := latencies{}
	for _, q := range stream {
		var err error
		d := time.Now()
		switch q.kind {
		case "at":
			_, _, err = direct.At(q.ip, q.at)
		case "range":
			_, err = direct.RangeContext(ctx, q.prefix, e.days[q.day], e.days[q.last])
		case "churn":
			_, err = direct.ChurnContext(ctx, q.prefix, e.days[q.day], e.days[q.last])
		case "name":
			direct.FindName(q.token)
		}
		byKind.add(q.kind, time.Since(d))
		if err != nil {
			direct.Close()
			return fmt.Errorf("direct %s: %w", q.kind, err)
		}
	}
	st := direct.Stats()
	direct.Close()
	for kind, name := range map[string]string{"at": "at", "range": "range", "churn": "churn", "name": "findname"} {
		r.set("histstore."+name+"_us", 1000*median(byKind[kind]), "us")
	}
	r.set("histstore.cache_hit_ratio", float64(st.CacheHits)/float64(max(1, st.CacheHits+st.CacheMisses)), "ratio")
	r.set("histstore.reconstructions_per_query", float64(st.Reconstructions)/float64(len(stream)), "count")

	// The default wiring and the bare handler each get a freshly opened
	// store and see the same stream; they alternate which goes first per
	// query, so drift and warm-up fall on both alike.
	handler := func(cfg rdnsserve.Config, reg *telemetry.Registry) (*rdnsserve.Server, error) {
		st, err := openServed(e.baseDir, reg)
		if err != nil {
			return nil, err
		}
		return rdnsserve.New(st, cfg), nil
	}
	reg := telemetry.NewRegistry()
	observedSrv, err := handler(rdnsdConfig(reg, r.seed, nil), reg)
	if err != nil {
		return err
	}
	defer observedSrv.Close()
	bareSrv, err := handler(rdnsserve.Config{}, nil)
	if err != nil {
		return err
	}
	defer bareSrv.Close()
	serve := func(h http.Handler, q query) (float64, error) {
		req := httptest.NewRequest(http.MethodGet, e.path(q), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := float64(time.Since(t0)) / float64(time.Microsecond)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("handler %s: status %d", e.path(q), rec.Code)
		}
		return d, nil
	}
	observedH, bareH := observedSrv.Handler(), bareSrv.Handler()
	var observed []float64
	var observedTotal, bareTotal float64
	for i, q := range stream {
		var o, b float64
		var err1, err2 error
		if i%2 == 0 {
			o, err1 = serve(observedH, q)
			b, err2 = serve(bareH, q)
		} else {
			b, err2 = serve(bareH, q)
			o, err1 = serve(observedH, q)
		}
		if err1 != nil || err2 != nil {
			return errors.Join(err1, err2)
		}
		observed = append(observed, o)
		observedTotal += o
		bareTotal += b
	}
	r.set("rdnsserve.handler_us", median(observed), "us")
	r.set("telemetry.tax_ratio", observedTotal/bareTotal, "ratio")

	reg = telemetry.NewRegistry()
	hst, err := openServed(e.baseDir, reg)
	if err != nil {
		return err
	}
	srv := rdnsserve.New(hst, rdnsdConfig(reg, r.seed, nil))
	defer srv.Close()
	front, err := serveLoopback(srv.Handler())
	if err != nil {
		return err
	}
	defer front.close()
	c := rdnsclient.New(front.url)
	var wire []float64
	for _, q := range stream {
		d, err := e.ask(ctx, c, q, storeDays)
		r.op(err)
		wire = append(wire, float64(d)/float64(time.Microsecond))
	}
	r.set("http.overhead_us", median(wire)-median(observed), "us")
	return nil
}

// stream regenerates the first cycles of read client 0's query stream.
func (e *serveEnv) stream(cycles int) []query {
	rng := rand.New(rand.NewSource(clientSeed(e.r.seed, 0)))
	var out []query
	for i := 0; i < cycles; i++ {
		for _, kind := range mix {
			out = append(out, e.next(rng, kind, 0, storeDays-1))
		}
	}
	return out
}

// path is the v1 request rdnsclient sends for q.
func (e *serveEnv) path(q query) string {
	v := url.Values{}
	var p string
	switch q.kind {
	case "at":
		p = "/v1/at"
		v.Set("ip", q.ip.String())
		v.Set("t", q.at.UTC().Format(time.RFC3339))
	case "range", "churn":
		p = "/v1/" + q.kind
		v.Set("prefix", q.prefix.String())
		v.Set("from", e.days[q.day].UTC().Format(time.RFC3339))
		v.Set("to", e.days[q.last].UTC().Format(time.RFC3339))
		if q.kind == "range" {
			v.Set("limit", "10000")
		}
	default:
		p = "/v1/name"
		v.Set("token", q.token)
	}
	return p + "?" + v.Encode()
}

func sortedKeys[K comparable](m map[K]bool, less func(a, b K) bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
