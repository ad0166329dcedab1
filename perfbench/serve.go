package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// The serving history: a daily campaign over the small universe's
// networks (filler never changes and campaigns store only the networks,
// as rdnsscan -store does), compacted every compactEvery appends. About
// 390 /24 blocks x 21 days is ~8k block states, twice rdnsd's default
// 4096-state reconstruction cache, so uniform reads keep missing it. An
// ingest round appends ingestDays more days to a copy of it (one
// compaction each); its reader asks about the newest three days, a
// working set that fits.
var storeStart = day(2021, time.February, 1)

const (
	storeDays    = 21
	ingestDays   = 7
	compactEvery = histstore.DefaultBaseInterval
	rdnsdCache   = 4096 // rdnsd's -cache default
	newestDays   = 3
	readClients  = 2
	rangeDays    = 7 // window of /range and /churn queries
)

// mix is one closed-loop cycle of a client: cmd/rdnsload's default
// weights for these four endpoints (at=50, range=20, churn=10, name=10),
// in a fixed order so every run sends whole cycles of the same kinds.
var mix = []string{"at", "at", "at", "at", "at", "range", "range", "churn", "name"}

// serveEnv is one set-up serving stack and the record sets behind it.
type serveEnv struct {
	r       *run
	baseDir string
	days    []time.Time                          // store days, then ingest days
	sets    []scanengine.RecordSet               // the record set appended for each day
	index   map[time.Time]int                    // snapshot instant -> day
	blocks  []dnswire.Prefix                     // /24s holding records
	ips     []dnswire.IPv4                       // every address that ever held a record
	tokens  map[string]map[dnswire.Prefix][]bool // Top50 token -> /24 -> day carries it
	counts  map[dnswire.Prefix][]int             // /24 -> day -> records appended in it
	churn   map[dnswire.Prefix][]churnCount      // /24 -> day -> own diff against the day before

	srv  *rdnsserve.Server
	http *httpFront
}

// httpFront serves a handler on a loopback listener.
type httpFront struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln)
	}()
	return f, nil
}

func (f *httpFront) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
	<-f.done
}

// rdnsdConfig is cmd/rdnsd's default wiring: registry sink, tracer,
// admission off, hot reload through a read-only reopen with the default
// cache and hot-segment bound.
func rdnsdConfig(reg *telemetry.Registry, seed int64, reopen func() (*histstore.Store, error)) rdnsserve.Config {
	return rdnsserve.Config{
		Sink:   reg,
		Tracer: telemetry.NewTracer(seed, 4096),
		Seed:   seed,
		Reopen: reopen,
	}
}

func openServed(dir string, reg *telemetry.Registry) (*histstore.Store, error) {
	return histstore.Open(dir,
		histstore.WithCache(rdnsdCache),
		histstore.WithTelemetry(reg),
		histstore.WithHotSegments(histstore.DefaultHotSegments),
		histstore.WithReadOnly())
}

// setupServe builds the serving universe, sweeps and appends the store's
// days, precomputes the ingest days' snapshots, and starts rdnsd's
// handler on a loopback listener.
func setupServe(r *run, rep int) (*serveEnv, error) {
	u, err := netsim.BuildStudyUniverse(smallUniverse(r.seed))
	if err != nil {
		return nil, err
	}
	e := &serveEnv{r: r, baseDir: filepath.Join(r.scratch, fmt.Sprintf("store-%d", rep)), index: map[time.Time]int{}}
	w, err := histstore.Open(e.baseDir)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	camp := scan.Campaign{Universe: u, SkipFiller: true}
	for d := 0; d < storeDays+ingestDays; d++ {
		at := storeStart.AddDate(0, 0, d).Add(snapshotTime)
		snap, err := scan.Snapshot(ctx, camp, at)
		if err != nil {
			w.Close()
			return nil, err
		}
		e.index[at] = len(e.days)
		e.days = append(e.days, at)
		e.sets = append(e.sets, snap.Records)
		if d >= storeDays {
			continue
		}
		if err := w.Append(at, snap.Records); err != nil {
			w.Close()
			return nil, err
		}
		if (d+1)%compactEvery == 0 {
			if _, err := w.CompactWriter(ctx, w.WriterID(), histstore.CompactOptions{MinSeal: compactEvery}); err != nil {
				w.Close()
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	st, err := openServed(e.baseDir, reg)
	if err != nil {
		return nil, err
	}
	e.srv = rdnsserve.New(st, rdnsdConfig(reg, r.seed, nil)) // the server owns st
	if e.http, err = serveLoopback(e.srv.Handler()); err != nil {
		e.srv.Close()
		return nil, err
	}
	return e, nil
}

// churnCount is one /24's diff of one day's appended set against the
// day before.
type churnCount struct{ added, removed, changed int }

// indexTruth derives what the serve checks need from the appended sets,
// once, so each check costs in proportion to its answer: the /24s and
// addresses to ask about, each (/24, day)'s record count and churn (the
// benchmark's own diff of consecutive sets), and which days each Top50
// token appears on in each /24 (tokens as histstore documents them: the
// first label's '-'-separated pieces, plus the stem of a possessive
// piece).
func (e *serveEnv) indexTruth() {
	blocks := map[dnswire.Prefix]bool{}
	ips := map[dnswire.IPv4]bool{}
	want := map[string]bool{}
	for _, n := range names.Top50 {
		want[n] = true
	}
	e.tokens = map[string]map[dnswire.Prefix][]bool{}
	e.counts = map[dnswire.Prefix][]int{}
	e.churn = map[dnswire.Prefix][]churnCount{}
	diff := func(p dnswire.Prefix, d int) *churnCount {
		if e.churn[p] == nil {
			e.churn[p] = make([]churnCount, len(e.sets))
		}
		return &e.churn[p][d]
	}
	for di, set := range e.sets {
		for ip, name := range set {
			blocks[ip.Slash24()] = true
			ips[ip] = true
			if e.counts[ip.Slash24()] == nil {
				e.counts[ip.Slash24()] = make([]int, len(e.sets))
			}
			e.counts[ip.Slash24()][di]++
			if di > 0 {
				old, ok := e.sets[di-1][ip]
				switch {
				case !ok:
					diff(ip.Slash24(), di).added++
				case old != name:
					diff(ip.Slash24(), di).changed++
				}
			}
			first, _, _ := strings.Cut(strings.ToLower(string(name)), ".")
			for _, piece := range strings.Split(first, "-") {
				for _, tok := range []string{piece, strings.TrimSuffix(piece, "s")} {
					if !want[tok] || (tok != piece && len(piece) <= 2) {
						continue
					}
					byBlock := e.tokens[tok]
					if byBlock == nil {
						byBlock = map[dnswire.Prefix][]bool{}
						e.tokens[tok] = byBlock
					}
					if byBlock[ip.Slash24()] == nil {
						byBlock[ip.Slash24()] = make([]bool, len(e.sets))
					}
					byBlock[ip.Slash24()][di] = true
				}
			}
		}
		if di > 0 {
			for ip := range e.sets[di-1] {
				if _, ok := set[ip]; !ok {
					diff(ip.Slash24(), di).removed++
				}
			}
		}
	}
	e.blocks = sortedKeys(blocks, func(a, b dnswire.Prefix) bool { return a.Addr.Uint32() < b.Addr.Uint32() })
	e.ips = sortedKeys(ips, func(a, b dnswire.IPv4) bool { return a.Uint32() < b.Uint32() })
}

func (e *serveEnv) close() {
	e.http.close()
	e.srv.Close()
	os.RemoveAll(e.baseDir)
}

// query is one generated request of the mix.
type query struct {
	kind   string
	ip     dnswire.IPv4
	at     time.Time
	day    int // the day an at query resolves to; the window start otherwise
	last   int // the window end of range and churn
	prefix dnswire.Prefix
	token  string
}

// next draws one query of kind over days [lo, hi]: instants fall
// uniformly inside a day (before the next snapshot), so each query
// resolves to a known day.
func (e *serveEnv) next(rng *rand.Rand, kind string, lo, hi int) query {
	q := query{kind: kind}
	switch kind {
	case "at":
		q.day = lo + rng.Intn(hi-lo+1)
		q.ip = e.ips[rng.Intn(len(e.ips))]
		q.at = e.days[q.day].Add(time.Duration(rng.Int63n(int64(24*time.Hour/time.Second))) * time.Second)
	case "range", "churn":
		span := min(rangeDays, hi-lo+1)
		q.day = lo + rng.Intn(hi-lo+2-span)
		q.last = q.day + span - 1
		q.prefix = e.blocks[rng.Intn(len(e.blocks))]
	case "name":
		q.token = names.Top50[rng.Intn(len(names.Top50))]
	}
	return q
}

// ask sends q through the client and checks the answer; served is how
// many days the server is known to hold.
func (e *serveEnv) ask(ctx context.Context, c *rdnsclient.Client, q query, served int) (time.Duration, error) {
	t0 := time.Now()
	switch q.kind {
	case "at":
		resp, err := c.At(ctx, q.ip.String(), q.at)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, e.checkAt(q, resp)
	case "range":
		rows, err := c.RangeAll(ctx, rdnsclient.RangeQuery{Prefix: q.prefix.String(), From: e.days[q.day], To: e.days[q.last], Limit: 10000})
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, e.checkRange(q, rows)
	case "churn":
		resp, err := c.Churn(ctx, q.prefix.String(), e.days[q.day], e.days[q.last])
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, e.checkChurn(q, resp.Days)
	default:
		postings, err := c.NameAll(ctx, q.token)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, e.checkName(q.token, postings, served)
	}
}

func (e *serveEnv) checkAt(q query, resp rdnsclient.AtResponse) error {
	name, ok := e.sets[q.day][q.ip]
	if !resp.Resolved.Equal(e.days[q.day]) || resp.Found != ok || resp.Name != string(name) {
		return fmt.Errorf("at %s %s: got resolved %s found %v %q, appended %s %v %q",
			q.ip, q.at.Format(time.RFC3339), resp.Resolved.Format(time.RFC3339), resp.Found, resp.Name,
			e.days[q.day].Format(time.RFC3339), ok, name)
	}
	return nil
}

func (e *serveEnv) checkRange(q query, rows []rdnsclient.RangeRow) error {
	want := 0
	if counts := e.counts[q.prefix]; counts != nil {
		for d := q.day; d <= q.last; d++ {
			want += counts[d]
		}
	}
	if len(rows) != want {
		return fmt.Errorf("range %s days %d-%d: %d rows, appended %d", q.prefix, q.day, q.last, len(rows), want)
	}
	for _, row := range rows {
		d, ok := e.index[row.Date]
		ip, err := dnswire.ParseIPv4(row.IP)
		if !ok || err != nil || d < q.day || d > q.last || !q.prefix.Contains(ip) || string(e.sets[d][ip]) != row.PTR {
			return fmt.Errorf("range %s: row %+v was not appended", q.prefix, row)
		}
	}
	return nil
}

func (e *serveEnv) checkChurn(q query, days []rdnsclient.ChurnDay) error {
	first := max(q.day, 1) // the store's first day has no baseline
	if len(days) != q.last-first+1 {
		return fmt.Errorf("churn %s days %d-%d: %d entries", q.prefix, q.day, q.last, len(days))
	}
	for i, got := range days {
		d := first + i
		var want churnCount
		if diffs := e.churn[q.prefix]; diffs != nil {
			want = diffs[d]
		}
		if !got.Date.Equal(e.days[d]) || got.Added != want.added || got.Removed != want.removed || got.Changed != want.changed {
			return fmt.Errorf("churn %s day %s: got +%d -%d ~%d, own diff +%d -%d ~%d",
				q.prefix, e.days[d].Format(time.RFC3339), got.Added, got.Removed, got.Changed, want.added, want.removed, want.changed)
		}
	}
	return nil
}

// checkName requires every posting to carry the token on each of its
// days, and the postings to cover every (/24, day) among the first
// served days that carries it.
func (e *serveEnv) checkName(token string, postings []rdnsclient.NamePosting, served int) error {
	covered := map[dnswire.Prefix][]bool{}
	for _, p := range postings {
		prefix, err := dnswire.ParsePrefix(p.Prefix)
		first, ok1 := e.index[p.First]
		last, ok2 := e.index[p.Last]
		if err != nil || !ok1 || !ok2 || first > last {
			return fmt.Errorf("name %s: posting %+v names no appended days", token, p)
		}
		carries := e.tokens[token][prefix]
		for d := first; d <= last; d++ {
			if carries == nil || !carries[d] {
				return fmt.Errorf("name %s: %s on %s does not carry the token", token, prefix, e.days[d].Format(time.RFC3339))
			}
		}
		if covered[prefix] == nil {
			covered[prefix] = make([]bool, len(e.days))
		}
		for d := first; d <= last; d++ {
			covered[prefix][d] = true
		}
	}
	for prefix, carries := range e.tokens[token] {
		for d := 0; d < served; d++ {
			if carries[d] && (covered[prefix] == nil || !covered[prefix][d]) {
				return fmt.Errorf("name %s: %s on %s carries the token, no posting covers it", token, prefix, e.days[d].Format(time.RFC3339))
			}
		}
	}
	return nil
}

// readResult is what closed-loop queries measured.
type readResult struct {
	lat     latencies
	queries int
	wall    time.Duration
}

func (a *readResult) add(b readResult) {
	if a.lat == nil {
		a.lat = latencies{}
	}
	a.lat.merge(b.lat)
	a.queries += b.queries
	a.wall += b.wall
}

// clientLoop runs whole mix cycles until stop reports true, over the
// days window returns; each answer is checked.
func (e *serveEnv) clientLoop(ctx context.Context, url string, seed int64, window func() (lo, hi int), stop func() bool, guard *sync.RWMutex, report func(error)) latencies {
	c := rdnsclient.New(url)
	rng := rand.New(rand.NewSource(seed))
	lat := latencies{}
	for first := true; first || !stop(); first = false {
		for _, kind := range mix {
			if guard != nil {
				guard.RLock()
			}
			lo, hi := window()
			d, err := e.ask(ctx, c, e.next(rng, kind, lo, hi), hi+1)
			if guard != nil {
				guard.RUnlock()
			}
			lat.add(kind, d)
			report(err)
		}
	}
	return lat
}

// readPhase runs readClients closed-loop clients against the read
// server over the whole history until the deadline, adding their
// latencies to the run's read tally.
func (r *run) readPhase(e *serveEnv, deadline time.Time) (phaseCost, readResult) {
	settle()
	m := startMeter()
	res := e.closedLoop(e.http.url, readClients, deadline)
	cost := phaseCost{}
	cost.add(m.stop(), res.queries)
	r.t.reads.add(res)
	return cost, res
}

func (e *serveEnv) closedLoop(url string, clients int, deadline time.Time) readResult {
	var mu sync.Mutex
	res := readResult{lat: latencies{}}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat := e.clientLoop(context.Background(), url, clientSeed(e.r.seed, i),
				func() (int, int) { return 0, storeDays - 1 },
				func() bool { return !time.Now().Before(deadline) }, nil,
				func(err error) { mu.Lock(); e.r.op(err); mu.Unlock() })
			mu.Lock()
			res.lat.merge(lat)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.queries = len(res.lat.all())
	return res
}

// clientSeed derives client i's query stream from the run's seed.
func clientSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

func (r *run) setQueryMetrics(res readResult) {
	if res.queries == 0 {
		return
	}
	r.set("qps", float64(res.queries)/res.wall.Seconds(), "1/s")
	for _, kind := range []string{"at", "range", "churn", "name"} {
		r.set(kind+".p50_ms", median(res.lat[kind]), "ms")
	}
	r.set("query.p99_ms", quantile(res.lat.all(), 0.99), "ms")
}

// ingestPhase runs whole ingest rounds until the deadline (at least
// one). A round copies the set-up store, points the daemon at the copy,
// and appends ingestDays days one at a time through a writer handle,
// compacting every compactEvery appends and reloading the daemon after
// each append, while one reader asks about the newest days. One op is
// one append, timed until the new day is served. Latencies and cache
// counters go to the run's ingest tally.
func (r *run) ingestPhase(e *serveEnv, deadline time.Time) (phaseCost, error) {
	var dir atomic.Value
	reg := telemetry.NewRegistry()
	// Every reload opens a store with a cold cache; the cache counters
	// of each served store are summed as it is replaced.
	var served atomic.Pointer[histstore.Store]
	account := func(st *histstore.Store) {
		if st != nil {
			s := st.Stats()
			r.t.ingestCache.hits += s.CacheHits
			r.t.ingestCache.misses += s.CacheMisses
			r.t.ingestCache.recon += s.Reconstructions
		}
	}
	reopen := func() (*histstore.Store, error) {
		st, err := openServed(dir.Load().(string), reg)
		if err == nil {
			account(served.Swap(st))
		}
		return st, err
	}
	dir.Store(e.baseDir)
	first, err := reopen()
	if err != nil {
		return phaseCost{}, err
	}
	srv := rdnsserve.New(first, rdnsdConfig(reg, r.seed, reopen))
	defer srv.Close()
	front, err := serveLoopback(srv.Handler())
	if err != nil {
		return phaseCost{}, err
	}
	defer front.close()

	var guard sync.RWMutex
	var newest atomic.Int64 // index of the newest served day
	newest.Store(storeDays - 1)
	stop := make(chan struct{})
	readerDone := make(chan latencies, 1)
	var mu sync.Mutex
	settle()
	m := startMeter()
	t0 := time.Now()
	readerSeed := clientSeed(r.seed, readClients+r.ingestRounds)
	go func() {
		readerDone <- e.clientLoop(context.Background(), front.url, readerSeed,
			func() (int, int) { hi := int(newest.Load()); return hi - newestDays + 1, hi },
			func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			}, &guard,
			func(err error) { mu.Lock(); r.op(err); mu.Unlock() })
	}()

	c := rdnsclient.New(front.url)
	before := len(r.t.ingest)
	var runErr error
	for n := 0; runErr == nil && (n == 0 || time.Now().Before(deadline)); n++ {
		runErr = r.ingestRound(e, &dir, srv, c, &guard, &newest, &mu)
	}
	close(stop)
	readLat := <-readerDone
	wall := time.Since(t0)
	cost := phaseCost{}
	cost.add(m.stop(), len(r.t.ingest)-before)
	account(served.Load())
	r.t.reader.add(readResult{lat: readLat, queries: len(readLat.all()), wall: wall})
	return cost, runErr
}

func (r *run) ingestRound(e *serveEnv, dir *atomic.Value, srv *rdnsserve.Server, c *rdnsclient.Client,
	guard *sync.RWMutex, newest *atomic.Int64, mu *sync.Mutex) error {
	r.ingestRounds++
	roundDir := filepath.Join(e.r.scratch, fmt.Sprintf("ingest-%d", r.ingestRounds))
	if err := copyDir(e.baseDir, roundDir); err != nil {
		return err
	}
	prev := dir.Load().(string)
	guard.Lock()
	dir.Store(roundDir)
	_, err := srv.Reload()
	newest.Store(storeDays - 1)
	guard.Unlock()
	if err != nil {
		return fmt.Errorf("reload onto round store: %w", err)
	}
	if prev != e.baseDir {
		os.RemoveAll(prev)
	}
	w, err := histstore.Open(roundDir)
	if err != nil {
		return err
	}
	defer w.Close()
	ctx := context.Background()
	for i := 0; i < ingestDays; i++ {
		d := storeDays + i
		at, recs := e.days[d], e.sets[d]
		probe := anyAddress(recs)
		root := r.tr.begin("ingest", 0)
		t0 := time.Now()
		var opErr error
		var before int64
		if r.tr != nil {
			before = w.Stats().Bytes
		}
		r.tr.timed("histstore.Store.Append", root, func() { opErr = w.Append(at, recs) })
		if r.tr != nil && opErr == nil {
			r.bytesPerRecord = append(r.bytesPerRecord, float64(w.Stats().Bytes-before)/float64(len(recs)))
		}
		if opErr == nil && (i+1)%compactEvery == 0 {
			r.tr.timed("histstore.Store.CompactWriter", root, func() {
				_, opErr = w.CompactWriter(ctx, w.WriterID(), histstore.CompactOptions{MinSeal: compactEvery})
			})
		}
		if opErr == nil {
			r.tr.timed("rdnsserve.Server.Reload", root, func() { _, opErr = srv.Reload() })
		}
		var resp rdnsclient.AtResponse
		if opErr == nil {
			r.tr.timed("rdnsclient.Client.At", root, func() { resp, opErr = c.At(ctx, probe.String(), at) })
		}
		lat := time.Since(t0)
		r.tr.end(root)
		if opErr != nil {
			return fmt.Errorf("ingest day %s: %w", at.Format(time.RFC3339), opErr)
		}
		r.t.ingest = append(r.t.ingest, float64(lat)/float64(time.Millisecond))
		err := e.checkAt(query{kind: "at", ip: probe, at: at, day: d}, resp)
		if err == nil {
			err = checkDays(ctx, c, e.days[:d+1])
		}
		mu.Lock()
		r.op(err)
		mu.Unlock()
		newest.Store(int64(d))
	}
	return nil
}

// checkDays requires /v1/days to list exactly the appended days.
func checkDays(ctx context.Context, c *rdnsclient.Client, want []time.Time) error {
	got, err := c.Days(ctx)
	if err != nil {
		return err
	}
	if got.Count != len(want) || len(got.Days) != len(want) {
		return fmt.Errorf("days: %d listed, %d appended", len(got.Days), len(want))
	}
	for i := range want {
		if !got.Days[i].Equal(want[i]) {
			return fmt.Errorf("days[%d]: %s listed, %s appended", i, got.Days[i], want[i])
		}
	}
	return nil
}

func anyAddress(recs scanengine.RecordSet) dnswire.IPv4 {
	var best dnswire.IPv4
	found := false
	for ip := range recs {
		if !found || ip.Uint32() < best.Uint32() {
			best, found = ip, true
		}
	}
	return best
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
