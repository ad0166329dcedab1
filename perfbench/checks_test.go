package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/scanengine"
)

// Each check is fed the value it expects (it must pass) and then a wrong
// value (it must fail), so no check can pass by checking nothing.

func TestStudyChecksRejectWrongValues(t *testing.T) {
	truth, err := newStudyTruth(3)
	if err != nil {
		t.Fatal(err)
	}
	c := truth.cfg
	weekly := truth.campaign(c.Rapid7Start, c.Rapid7End, 7, nil)
	daily := truth.campaign(c.OpenINTELStart, c.OpenINTELEnd, 1, nil)
	row := func(s campaignStats) dataset.Stats {
		return dataset.Stats{TotalResponses: s.responses, UniqueIPs: s.ips, UniquePTRs: s.ptrs}
	}
	good := core.Table1Result{Rapid7: row(weekly), OpenINTEL: row(daily)}
	if err := truth.checkTable1(good, nil); err != nil {
		t.Fatalf("table1 right values rejected: %v", err)
	}
	for i, bad := range []func(*core.Table1Result){
		func(r *core.Table1Result) { r.Rapid7.TotalResponses++ },
		func(r *core.Table1Result) { r.Rapid7.UniqueIPs-- },
		func(r *core.Table1Result) { r.OpenINTEL.UniquePTRs++ },
	} {
		r := good
		bad(&r)
		if truth.checkTable1(r, nil) == nil {
			t.Errorf("table1 wrong value %d accepted", i)
		}
	}

	var dyn, static dnswire.Prefix
	for _, n := range truth.u.Networks {
		for _, b := range n.Config().Blocks {
			if b.Kind == netsim.BlockDynamic && dyn.Bits == 0 {
				dyn = b.Prefix.Slash24s()[0]
			}
			if b.Kind != netsim.BlockDynamic && static.Bits == 0 && !truth.inDynamicBlock(b.Prefix.Slash24s()[0]) {
				static = b.Prefix.Slash24s()[0]
			}
		}
	}
	if err := truth.checkFigure1([]dnswire.Prefix{dyn}, 1); err != nil {
		t.Fatalf("figure1 right labels rejected: %v", err)
	}
	for name, labels := range map[string][]dnswire.Prefix{
		"filler":   {dyn, truth.u.Filler[0].Prefix},
		"static":   {dyn, static},
		"no label": nil,
	} {
		if truth.checkFigure1(labels, len(labels)) == nil {
			t.Errorf("figure1 %s accepted", name)
		}
	}
	if truth.checkFigure1([]dnswire.Prefix{dyn}, 2) == nil {
		t.Error("figure1 wrong reported count accepted")
	}

	_, counts := truth.leakUnion()
	f2 := core.Figure2Result{All: counts, Filtered: map[string]int{}}
	if err := truth.checkFigure2(f2); err != nil {
		t.Fatalf("figure2 right counts rejected: %v", err)
	}
	all := map[string]int{}
	for n, c := range counts {
		all[n] = c
	}
	all["jacob"]++
	if truth.checkFigure2(core.Figure2Result{All: all, Filtered: map[string]int{}}) == nil {
		t.Error("figure2 wrong all-match count accepted")
	}
	if truth.checkFigure2(core.Figure2Result{All: counts, Filtered: map[string]int{"jacob": counts["jacob"] + 1}}) == nil {
		t.Error("figure2 filtered > all accepted")
	}
}

func TestTable3CheckRejectsWrongValues(t *testing.T) {
	end := supplStart.Add(supplLength)
	targets := []dnswire.Prefix{dnswire.MustPrefix("10.1.0.0/24")}
	inside, outside := dnswire.MustIPv4("10.1.0.7"), dnswire.MustIPv4("10.2.0.7")
	good := core.Table3Result{ICMPResponses: 10, ICMPUniqueIPs: 4, RDNSResponses: 8, RDNSUniqueIPs: 3, RDNSUniquePTRs: 3}
	named := map[string]bool{"ISP-A": true}
	alive := map[string]int{"ISP-A": 4}
	last := end.Add(-time.Hour)
	if err := checkTable3(good, targets, named, []dnswire.IPv4{inside}, alive, last, end); err != nil {
		t.Fatalf("table3 right values rejected: %v", err)
	}
	uniq := good
	uniq.RDNSUniquePTRs = 9
	empty := good
	empty.RDNSResponses, empty.RDNSUniqueIPs, empty.RDNSUniquePTRs = 0, 0, 0
	cases := map[string]error{
		"unique > responses": checkTable3(uniq, targets, named, []dnswire.IPv4{inside}, alive, last, end),
		"no responses":       checkTable3(empty, targets, named, []dnswire.IPv4{inside}, alive, last, end),
		"outside target":     checkTable3(good, targets, named, []dnswire.IPv4{outside}, alive, last, end),
		"untargeted network": checkTable3(good, targets, named, []dnswire.IPv4{inside}, map[string]int{"X": 1}, last, end),
		"clock stopped":      checkTable3(good, targets, named, []dnswire.IPv4{inside}, alive, end.Add(-3*time.Hour), end),
	}
	for name, err := range cases {
		if err == nil {
			t.Errorf("table3 %s accepted", name)
		}
	}
}

func TestGivenNames(t *testing.T) {
	for host, want := range map[string]string{
		"jacobs-iphone.dyn.example.edu": "jacob",
		"Emma-MacBook-Pro.example.com":  "emma",
		"abrian-pc.example.com":         "",
		"static-10-1-2-3.isp.net":       "",
	} {
		got := givenNames(host)
		if (want == "" && len(got) != 0) || (want != "" && (len(got) != 1 || got[0] != want)) {
			t.Errorf("givenNames(%q) = %v, want %q", host, got, want)
		}
	}
}

// testEnv is a three-day history of one /24 with known churn and tokens.
func testEnv() *serveEnv {
	a, b, c := dnswire.MustIPv4("10.9.0.1"), dnswire.MustIPv4("10.9.0.2"), dnswire.MustIPv4("10.9.0.3")
	n := func(s string) dnswire.Name { return dnswire.MustName(s) }
	e := &serveEnv{index: map[time.Time]int{}}
	e.sets = []scanengine.RecordSet{
		{a: n("jacobs-iphone.x.edu"), b: n("emma-pc.x.edu")},
		{a: n("jacobs-iphone.x.edu"), c: n("host.x.edu")},
		{a: n("noah-ipad.x.edu"), c: n("host.x.edu")},
	}
	for i := range e.sets {
		at := storeStart.AddDate(0, 0, i).Add(snapshotTime)
		e.days = append(e.days, at)
		e.index[at] = i
	}
	e.indexTruth()
	return e
}

func TestServeChecksRejectWrongValues(t *testing.T) {
	e := testEnv()
	p := dnswire.MustPrefix("10.9.0.0/24")
	a := dnswire.MustIPv4("10.9.0.1")

	at := query{kind: "at", ip: a, at: e.days[1].Add(time.Hour), day: 1}
	good := rdnsclient.AtResponse{Resolved: e.days[1], Found: true, Name: string(e.sets[1][a])}
	if err := e.checkAt(at, good); err != nil {
		t.Fatalf("at right answer rejected: %v", err)
	}
	for name, bad := range map[string]rdnsclient.AtResponse{
		"wrong name":     {Resolved: e.days[1], Found: true, Name: "noah-ipad.x.edu"},
		"wrong day":      {Resolved: e.days[0], Found: true, Name: string(e.sets[1][a])},
		"missing record": {Resolved: e.days[1]},
	} {
		if e.checkAt(at, bad) == nil {
			t.Errorf("at %s accepted", name)
		}
	}

	rq := query{kind: "range", prefix: p, day: 0, last: 1}
	var rows []rdnsclient.RangeRow
	for d := 0; d <= 1; d++ {
		for ip, name := range e.sets[d] {
			rows = append(rows, rdnsclient.RangeRow{Date: e.days[d], IP: ip.String(), PTR: string(name)})
		}
	}
	if err := e.checkRange(rq, rows); err != nil {
		t.Fatalf("range right rows rejected: %v", err)
	}
	if e.checkRange(rq, rows[1:]) == nil {
		t.Error("range missing row accepted")
	}
	wrong := append([]rdnsclient.RangeRow(nil), rows...)
	wrong[0].PTR = "other.x.edu"
	if e.checkRange(rq, wrong) == nil {
		t.Error("range wrong PTR accepted")
	}

	// Day 1: +c, -b. Day 2: a changed.
	cq := query{kind: "churn", prefix: p, day: 0, last: 2}
	churn := []rdnsclient.ChurnDay{
		{Date: e.days[1], Added: 1, Removed: 1},
		{Date: e.days[2], Changed: 1},
	}
	if err := e.checkChurn(cq, churn); err != nil {
		t.Fatalf("churn right diff rejected: %v", err)
	}
	churn[1].Changed = 0
	if e.checkChurn(cq, churn) == nil {
		t.Error("churn wrong count accepted")
	}
	if e.checkChurn(cq, churn[:1]) == nil {
		t.Error("churn missing day accepted")
	}

	posting := rdnsclient.NamePosting{Prefix: p.String(), First: e.days[0], Last: e.days[1]}
	if err := e.checkName("jacob", []rdnsclient.NamePosting{posting}, 3); err != nil {
		t.Fatalf("name right postings rejected: %v", err)
	}
	long := posting
	long.Last = e.days[2]
	if e.checkName("jacob", []rdnsclient.NamePosting{long}, 3) == nil {
		t.Error("name posting over a day without the token accepted")
	}
	if e.checkName("jacob", nil, 3) == nil {
		t.Error("name missing posting accepted")
	}
}

func TestCheckDaysRejectsWrongList(t *testing.T) {
	days := []time.Time{storeStart.Add(snapshotTime), storeStart.AddDate(0, 0, 1).Add(snapshotTime)}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"count":1,"days":["` + days[0].Format(time.RFC3339) + `"]}`))
	}))
	defer srv.Close()
	c := rdnsclient.New(srv.URL)
	if err := checkDays(context.Background(), c, days[:1]); err != nil {
		t.Fatalf("days right list rejected: %v", err)
	}
	if checkDays(context.Background(), c, days) == nil {
		t.Error("days list missing the new day accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

// The CPU profile fold must credit a busy internal/ package by name.
func TestFoldProfileCreditsInternalModules(t *testing.T) {
	u, err := netsim.BuildStudyUniverse(smallUniverse(1))
	if err != nil || len(u.Filler) == 0 {
		t.Fatalf("universe: %v", err)
	}
	tr := newTracer()
	tr.startProfile()
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for _, f := range u.Filler {
			f.Records(func(netsim.Record) {})
		}
	}
	prof, err := tr.stopProfile()
	if err != nil {
		t.Fatal(err)
	}
	if prof["netsim"] <= 0 {
		t.Fatalf("no CPU credited to netsim: %v", prof)
	}
}
