package main

import (
	"fmt"
	"hash/maphash"
	"strings"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
)

// The study workload's universe is cmd/experiments' small scale; its
// campaign windows are shortened so that one pass of the four heavy
// stages takes seconds, not a minute. The stage set is the one the
// pipeline spends ~90% of its wall time in (Table 1, Figure 2, Table 3)
// plus Figure 1, whose dynamicity labels Figure 2 consumes.
var (
	rapid7Start    = day(2020, time.October, 5)
	rapid7Weeks    = 8
	openintelStart = day(2021, time.March, 1)
	openintelDays  = 6
	dynamicityEnd  = day(2021, time.March, 31)
	dynamicityDays = 14
	leakDays       = 2
	supplStart     = day(2021, time.October, 26)
	supplLength    = 24 * time.Hour
)

// snapshotTime is the time of day scan campaigns sweep at (scan's
// default) and the offset PrivLeak's union days use.
const snapshotTime = 13 * time.Hour

func day(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

func smallUniverse(seed int64) netsim.UniverseConfig {
	return netsim.UniverseConfig{
		Seed:                  uint64(seed),
		FillerSlash24s:        6000,
		LeakyNetworks:         60,
		NonLeakyDynamic:       16,
		PeoplePerDynamicBlock: 30,
	}
}

func studyConfig(seed int64) core.Config {
	return core.Config{
		Seed:              uint64(seed),
		Universe:          smallUniverse(seed),
		LeakThresholds:    privleak.Config{MinUniqueNames: 12, MinRatio: 0.02},
		Rapid7Start:       rapid7Start,
		Rapid7End:         rapid7Start.AddDate(0, 0, 7*(rapid7Weeks-1)),
		OpenINTELStart:    openintelStart,
		OpenINTELEnd:      openintelStart.AddDate(0, 0, openintelDays-1),
		DynamicityStart:   dynamicityEnd.AddDate(0, 0, 1-dynamicityDays),
		DynamicityEnd:     dynamicityEnd,
		SupplementalStart: supplStart,
		SupplementalEnd:   supplStart.Add(supplLength),
		LeakWindowDays:    leakDays,
	}
}

// studyTruth is what the study checks compare against, computed by the
// benchmark from netsim alone: its own copy of the universe and the
// filler blocks' records, which no instant changes (FillerBlock.Records
// takes none), aggregated once.
type studyTruth struct {
	cfg         core.Config
	u           *netsim.Universe
	fillerN     int
	fillerIPs   map[uint32]struct{}
	fillerPTRs  map[uint64]struct{}
	fillerNames map[string]int // given-name matches among filler records
	fillerNets  map[dnswire.Prefix]bool
}

var nameSeed = maphash.MakeSeed()

func hashName(n dnswire.Name) uint64 { return maphash.String(nameSeed, string(n)) }

func newStudyTruth(seed int64) (*studyTruth, error) {
	cfg := studyConfig(seed)
	u, err := netsim.BuildStudyUniverse(cfg.Universe)
	if err != nil {
		return nil, fmt.Errorf("truth universe: %w", err)
	}
	t := &studyTruth{
		cfg: cfg, u: u,
		fillerIPs:   make(map[uint32]struct{}, 1<<19),
		fillerPTRs:  make(map[uint64]struct{}, 1<<19),
		fillerNames: map[string]int{},
		fillerNets:  map[dnswire.Prefix]bool{},
	}
	for _, f := range u.Filler {
		t.fillerNets[f.Prefix] = true
		f.Records(func(rec netsim.Record) {
			t.fillerN++
			t.fillerIPs[rec.IP.Uint32()] = struct{}{}
			t.fillerPTRs[hashName(rec.HostName)] = struct{}{}
			for _, n := range givenNames(string(rec.HostName)) {
				t.fillerNames[n]++
			}
		})
	}
	return t, nil
}

// dynamicRecords evaluates every network's records at one instant, one
// per address (a PTR sweep gets one answer per address).
func (t *studyTruth) dynamicRecords(at time.Time) map[dnswire.IPv4]dnswire.Name {
	out := make(map[dnswire.IPv4]dnswire.Name, 16384)
	for _, n := range t.u.Networks {
		n.RecordsAt(at, func(rec netsim.Record) { out[rec.IP] = rec.HostName })
	}
	return out
}

// campaignStats recomputes a Table 1 row: responses, unique IPs and
// unique PTRs over the snapshot instants of a campaign.
type campaignStats struct{ responses, ips, ptrs uint64 }

func (t *studyTruth) campaign(start, end time.Time, stepDays int, rec func(at time.Time, recs map[dnswire.IPv4]dnswire.Name)) campaignStats {
	ips := map[uint32]struct{}{}
	ptrs := map[uint64]struct{}{}
	var st campaignStats
	for d := start; !d.After(end); d = d.AddDate(0, 0, stepDays) {
		at := d.Add(snapshotTime)
		recs := t.dynamicRecords(at)
		if rec != nil {
			rec(at, recs)
		}
		st.responses += uint64(t.fillerN + len(recs))
		for ip, name := range recs {
			if !has(t.fillerIPs, ip.Uint32()) {
				ips[ip.Uint32()] = struct{}{}
			}
			if h := hashName(name); !has(t.fillerPTRs, h) {
				ptrs[h] = struct{}{}
			}
		}
	}
	st.ips = uint64(len(t.fillerIPs) + len(ips))
	st.ptrs = uint64(len(t.fillerPTRs) + len(ptrs))
	return st
}

// checkTable1 compares both Table 1 rows with the recomputed ones.
func (t *studyTruth) checkTable1(got core.Table1Result, rec func(time.Time, map[dnswire.IPv4]dnswire.Name)) error {
	c := t.cfg
	weekly := t.campaign(c.Rapid7Start, c.Rapid7End, 7, rec)
	daily := t.campaign(c.OpenINTELStart, c.OpenINTELEnd, 1, rec)
	if err := compareRow("weekly", got.Rapid7.TotalResponses, uint64(got.Rapid7.UniqueIPs), uint64(got.Rapid7.UniquePTRs), weekly); err != nil {
		return err
	}
	return compareRow("daily", got.OpenINTEL.TotalResponses, uint64(got.OpenINTEL.UniqueIPs), uint64(got.OpenINTEL.UniquePTRs), daily)
}

func compareRow(row string, responses, ips, ptrs uint64, want campaignStats) error {
	if responses != want.responses || ips != want.ips || ptrs != want.ptrs {
		return fmt.Errorf("table1 %s row: responses/ips/ptrs %d/%d/%d, recomputed %d/%d/%d",
			row, responses, ips, ptrs, want.responses, want.ips, want.ptrs)
	}
	return nil
}

// checkFigure1 requires at least one dynamic label, none on a filler /24,
// and every label inside one of a network's dynamic blocks.
func (t *studyTruth) checkFigure1(labelled []dnswire.Prefix, reported int) error {
	if len(labelled) == 0 || reported != len(labelled) {
		return fmt.Errorf("figure1: %d labelled /24s, figure reports %d", len(labelled), reported)
	}
	for _, p := range labelled {
		if t.fillerNets[p] {
			return fmt.Errorf("figure1: filler /24 %s labelled dynamic", p)
		}
		if !t.inDynamicBlock(p) {
			return fmt.Errorf("figure1: %s labelled dynamic outside every dynamic block", p)
		}
	}
	return nil
}

func (t *studyTruth) inDynamicBlock(p dnswire.Prefix) bool {
	for _, n := range t.u.Networks {
		for _, b := range n.Config().Blocks {
			if b.Kind == netsim.BlockDynamic && b.Prefix.Contains(p.Addr) {
				return true
			}
		}
	}
	return false
}

// leakUnion is the benchmark's own union of the Figure 2 window: filler
// once (it never changes) plus the networks' records of every day,
// deduplicated by (address, hostname). It returns the union's size and
// its given-name match counts.
func (t *studyTruth) leakUnion() (size int, counts map[string]int) {
	counts = map[string]int{}
	for n, c := range t.fillerNames {
		counts[n] = c
	}
	type key struct {
		ip   dnswire.IPv4
		name dnswire.Name
	}
	seen := map[key]struct{}{}
	for d := 0; d < t.cfg.LeakWindowDays; d++ {
		at := t.cfg.DynamicityEnd.AddDate(0, 0, d+1-t.cfg.LeakWindowDays).Add(snapshotTime)
		for ip, name := range t.dynamicRecords(at) {
			k := key{ip, name}
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			for _, n := range givenNames(string(name)) {
				counts[n]++
			}
		}
	}
	return t.fillerN + len(seen), counts
}

// checkFigure2 requires filtered <= all for every name, and every name's
// all-match count to equal the count over the benchmark's own union:
// privleak counts each record of the union exactly once, so this pins
// the union's content, not only its size.
func (t *studyTruth) checkFigure2(got core.Figure2Result) error {
	_, want := t.leakUnion()
	for _, n := range names.Top50 {
		if got.Filtered[n] > got.All[n] {
			return fmt.Errorf("figure2 %s: filtered %d > all %d", n, got.Filtered[n], got.All[n])
		}
		if got.All[n] != want[n] {
			return fmt.Errorf("figure2 %s: all matches %d, own union has %d", n, got.All[n], want[n])
		}
	}
	return nil
}

// givenNames is the Section 5.1 matching rule, written out here apart
// from the names package: maximal runs of letters, lowercased, equal to a
// Top50 name or to it plus a possessive "s". Each name counts once per
// hostname.
func givenNames(host string) []string {
	host = strings.ToLower(host)
	var out []string
	add := func(w string) {
		if n, ok := top50[w]; ok {
			for _, o := range out {
				if o == n {
					return
				}
			}
			out = append(out, n)
		}
	}
	start := -1
	for i := 0; i <= len(host); i++ {
		if i < len(host) && host[i] >= 'a' && host[i] <= 'z' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			add(host[start:i])
			start = -1
		}
	}
	return out
}

// top50 maps a word to the given name it matches: the name itself and
// its possessive form.
var top50 = func() map[string]string {
	m := map[string]string{}
	for _, n := range names.Top50 {
		m[n+"s"] = n
	}
	for _, n := range names.Top50 {
		m[n] = n // a name wins over another name's possessive
	}
	return m
}()

// checkTable3 requires unique counts within response counts, answers
// only from targeted addresses, and activity reaching the window's last
// hour (the simulated clock ran to the end).
func checkTable3(got core.Table3Result, targets []dnswire.Prefix, targetNames map[string]bool, answered []dnswire.IPv4, alive map[string]int, lastHour time.Time, end time.Time) error {
	if got.ICMPResponses == 0 || got.RDNSResponses == 0 {
		return fmt.Errorf("table3: no responses (icmp %d, rdns %d)", got.ICMPResponses, got.RDNSResponses)
	}
	if uint64(got.ICMPUniqueIPs) > got.ICMPResponses || uint64(got.RDNSUniqueIPs) > got.RDNSResponses || uint64(got.RDNSUniquePTRs) > got.RDNSResponses {
		return fmt.Errorf("table3: unique counts exceed responses: %+v", got)
	}
	for _, ip := range answered {
		if !containedIn(targets, ip) {
			return fmt.Errorf("table3: answer from %s outside the targets", ip)
		}
	}
	for name := range alive {
		if !targetNames[name] {
			return fmt.Errorf("table3: alive hosts in untargeted network %q", name)
		}
	}
	if lastHour.Before(end.Add(-time.Hour)) {
		return fmt.Errorf("table3: last activity %s, window ends %s", lastHour, end)
	}
	return nil
}

func containedIn(ps []dnswire.Prefix, ip dnswire.IPv4) bool {
	for _, p := range ps {
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// stageTimes are one pass's stage wall times in seconds.
type stageTimes [4]float64

var stageMetrics = [4]string{"table1_s", "fig1_s", "fig2_s", "table3_s"}

// studyPass runs the four stages on a fresh core.Study (its results are
// cached, so a reused Study would time nothing) and checks each.
func (r *run) studyPass(truth *studyTruth) (stageTimes, reading, error) {
	var st stageTimes
	m := startMeter()
	var s *core.Study
	var err error
	root := r.tr.begin("core.NewStudy", 0)
	s, err = core.NewStudy(truth.cfg)
	r.tr.end(root)
	if err != nil {
		return st, reading{}, fmt.Errorf("study: %w", err)
	}
	var t1 core.Table1Result
	var f1 core.Figure1Result
	var f2 core.Figure2Result
	var t3 core.Table3Result
	// Table 3 runs first, while the heap holds no campaign results yet:
	// the single-threaded event loop then shares the CPUs with less GC
	// marking, which made its time vary less. Figure 2 must follow
	// Figure 1, whose dynamicity labels it reuses (as the pipeline does).
	st[3] = r.tr.timed("core.Study.Table3", 0, func() { t3 = s.Table3() })
	st[0] = r.tr.timed("core.Study.Table1", 0, func() { t1 = s.Table1() })
	st[1] = r.tr.timed("core.Study.Figure1", 0, func() { f1 = s.Figure1() })
	st[2] = r.tr.timed("core.Study.Figure2", 0, func() { f2 = s.Figure2() })
	cost := m.stop()

	r.op(truth.checkTable1(t1, nil))
	r.op(truth.checkFigure1(s.Dynamicity().DynamicPrefixes, f1.DynamicSlash24s))
	r.op(truth.checkFigure2(f2))
	r.op(checkStudyTable3(s, t3))
	return st, cost, nil
}

func checkStudyTable3(s *core.Study, t3 core.Table3Result) error {
	var prefixes []dnswire.Prefix
	targetNames := map[string]bool{}
	for _, t := range s.SupplementalTargets() {
		prefixes = append(prefixes, t.Prefixes...)
		targetNames[t.Name] = true
	}
	res := s.Supplemental()
	var answered []dnswire.IPv4
	for _, g := range res.Groups {
		answered = append(answered, g.IP)
	}
	var last time.Time
	for _, hours := range res.Hours {
		for _, h := range hours {
			if h.Hour.After(last) {
				last = h.Hour
			}
		}
	}
	return checkTable3(t3, prefixes, targetNames, answered, res.PerNetworkAlive, last, s.Cfg.SupplementalEnd)
}

// studyPhase runs one pass after a GC and adds its stage times to the
// run's tally.
func (r *run) studyPhase(truth *studyTruth) (phaseCost, float64, error) {
	settle()
	t0 := time.Now()
	st, reading, err := r.studyPass(truth)
	if err != nil {
		return phaseCost{}, 0, err
	}
	wall := float64(time.Since(t0)) / float64(time.Millisecond)
	fmt.Printf("study pass %d: table1 %.3f s, fig1 %.3f s, fig2 %.3f s, table3 %.3f s\n", len(r.t.stages[0])+1, st[0], st[1], st[2], st[3])
	for i, v := range st {
		r.t.stages[i] = append(r.t.stages[i], v)
	}
	cost := phaseCost{}
	cost.add(reading, 4)
	return cost, wall, nil
}
