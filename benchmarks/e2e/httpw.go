package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"borg"
	"borg/internal/obs"
	"borg/internal/xrand"
)

// serveProc is a borg-serve subprocess on a loopback port: the system
// under test of http_covar, in a process of its own so that the load
// generator's allocations and CPU time are not the program's.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
}

// startServe spawns bin with the covariance payload and one shard and
// waits until it answers /healthz.
func startServe(bin string, workers int) (*serveProc, error) {
	// Ask the kernel for a free port, then hand it to the server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	p := &serveProc{base: "http://" + addr, exited: make(chan struct{})}
	// -pprof exposes the server's runtime.MemStats, which allocs_per_op
	// and the rt rows are read from; it costs nothing until scraped.
	p.cmd = exec.Command(bin, "-addr", addr, "-payload", "covar", "-shards", "1",
		"-workers", fmt.Sprint(workers), "-pprof", "-log-level", "error")
	p.cmd.Stderr = &p.stderr
	// The server must not outlive the benchmark, however that ends.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // a signalled exit is how stop ends it
		close(p.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("borg-serve exited during start-up: %s", p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("borg-serve did not become healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the server and waits until it has exited.
func (p *serveProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// conn is one keep-alive connection: a client limited to a single
// connection, the generator of the rows it owns, and its tallies.
type conn struct {
	client *http.Client
	base   string
	gen    *churnGen
	rng    *xrand.Source
	rows   [][]byte // the fact table's rows as JSON arrays
	body   bytes.Buffer

	acked    atomic.Int64 // rows in acknowledged /insert requests
	attempts int64        // rows sent, and other requests
	failed   int64
	bytesIn  int64 // request bodies
	bytesOut int64 // response bodies
	status   map[int]int64
	insertNs int64 // time in /insert round trips
}

func newConn(base string, gen *churnGen, rows [][]byte, seed uint64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{client: &http.Client{Transport: tr}, base: base, gen: gen, rows: rows,
		rng: xrand.New(seed), status: make(map[int]int64)}
}

// do sends one request and reads the whole response; a non-2xx status
// is a failure.
func (c *conn) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	c.bytesIn += int64(len(body))
	c.bytesOut += int64(len(out))
	c.status[resp.StatusCode]++
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, out)
	}
	return out, nil
}

// appendRow renders one op as an /insert array element.
func (c *conn) appendRow(o op, rel string) {
	if c.body.Len() > 1 {
		c.body.WriteByte(',')
	}
	c.body.WriteString(`{"rel":"` + rel + `"`)
	switch o.kind {
	case opDelete:
		c.body.WriteString(`,"op":"delete"`)
	case opUpdate:
		c.body.WriteString(`,"op":"update","new":`)
		c.body.Write(c.rows[o.row])
	}
	c.body.WriteString(`,"values":`)
	if o.kind == opUpdate {
		c.body.Write(c.rows[o.old])
	} else {
		c.body.Write(c.rows[o.row])
	}
	c.body.WriteByte('}')
}

// insert posts one array of n generated ops and returns the round trip.
func (c *conn) insert(n int) (time.Duration, error) {
	c.body.Reset()
	c.body.WriteByte('[')
	rel := c.gen.ds.tables[c.gen.ds.fact].name
	for i := 0; i < n; i++ {
		c.appendRow(c.gen.next(), rel)
	}
	c.body.WriteByte(']')
	c.attempts += int64(n)
	t0 := time.Now()
	_, err := c.do("POST", "/insert", c.body.Bytes())
	d := time.Since(t0)
	if err != nil {
		c.failed += int64(n)
		return d, err
	}
	c.insertNs += int64(d)
	c.acked.Add(int64(n))
	return d, nil
}

var httpModelKinds = []string{"linreg", "pca", "kmeans"}

// httpRun is the measured part of http_covar.
type httpRun struct {
	rc    *runCtx
	win   windows
	span  int
	stop  atomic.Bool
	mu    sync.Mutex // guards the samples: two connections add to them
	req   *samples   // POST /insert round trips, ms
	model *samples   // POST /v1/model round trips, ms
}

func (hr *httpRun) add(s *samples, d time.Duration) {
	w := hr.win.index(time.Now())
	hr.mu.Lock()
	s.add(w, ms(d))
	hr.mu.Unlock()
}

// drive is one connection's closed loop: 85% inserts of 16-row arrays,
// 10% GET /stats, 5% POST /v1/model cycling through the covar zoo.
func (hr *httpRun) drive(c *conn) {
	kind := 0
	for !hr.stop.Load() {
		u := c.rng.Float64()
		switch {
		case u < 0.85:
			sp := hr.rc.tr.begin(hr.span, "http.insert")
			d, err := c.insert(16)
			hr.rc.tr.end(sp, "rows", int64(16), "bytes", int64(c.body.Len()))
			if err == nil {
				hr.add(hr.req, d)
			}
		case u < 0.95:
			c.attempts++
			sp := hr.rc.tr.begin(hr.span, "http.stats")
			if _, err := c.do("GET", "/stats", nil); err != nil {
				c.failed++
			}
			hr.rc.tr.end(sp)
		default:
			c.attempts++
			body := `{"kind":"` + httpModelKinds[kind%len(httpModelKinds)] + `","params":{"response":"units","k":2}}`
			sp := hr.rc.tr.begin(hr.span, "http.model."+httpModelKinds[kind%len(httpModelKinds)])
			kind++
			t0 := time.Now()
			out, err := c.do("POST", "/v1/model", []byte(body))
			d := time.Since(t0)
			hr.rc.tr.end(sp)
			// A served model is finite: the server answers 409, never NaN,
			// and NaN is not JSON.
			if err != nil || !json.Valid(out) {
				c.failed++
				continue
			}
			hr.add(hr.model, d)
		}
	}
}

// statsBody is the part of GET /stats the benchmark reads.
type statsBody struct {
	Inserts   uint64             `json:"inserts"`
	Deletes   uint64             `json:"deletes"`
	Count     float64            `json:"count"`
	Means     map[string]float64 `json:"means"`
	Metrics   []obs.MetricPoint  `json:"metrics"`
	LastError *string            `json:"last_error"`
}

func getStats(c *conn) (statsBody, error) {
	var st statsBody
	out, err := c.do("GET", "/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(out, &st)
}

func getMemStats(c *conn) (memStats, error) {
	out, err := c.do("GET", "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(bytes.NewReader(out))
}

// barrier waits until the server reports nothing queued: every
// acknowledged op is then visible.
func barrier(c *conn) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		out, err := c.do("GET", "/readyz", nil)
		var ready struct {
			Queued int `json:"queued"`
		}
		if err == nil {
			if err := json.Unmarshal(out, &ready); err != nil {
				return err
			}
			if ready.Queued == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("barrier: still %d queued: %v", ready.Queued, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpSetup is one set-up of http_covar: generate, spawn the server,
// preload it over HTTP and wait for the barrier.
func httpSetup(rc *runCtx, parent int) (*serveProc, *dataset, [][][]byte, error) {
	sp := rc.tr.begin(parent, "setup.generate")
	ds := httpDataset(rc.seed, rc.sz.httpStores, rc.sz.httpItems, rc.sz.httpSales, rc.sz.httpBase)
	rows := make([][][]byte, len(ds.tables))
	for i, t := range ds.tables {
		rows[i] = make([][]byte, len(t.boxed))
		for r, row := range t.boxed {
			b, err := json.Marshal(row)
			if err != nil {
				return nil, nil, nil, err
			}
			rows[i][r] = b
		}
	}
	rc.tr.end(sp)
	sp = rc.tr.begin(parent, "setup.start")
	if _, err := os.Stat(rc.serveBin); err != nil {
		return nil, nil, nil, fmt.Errorf("no borg-serve binary (run.sh builds it, or pass -serve-bin): %w", err)
	}
	srv, err := startServe(rc.serveBin, rc.workers)
	rc.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = rc.tr.begin(parent, "setup.preload")
	loader := newConn(srv.base, nil, nil, 0)
	n := 0
	loader.body.WriteByte('[')
	flush := func() error {
		loader.body.WriteByte(']')
		_, err := loader.do("POST", "/insert", loader.body.Bytes())
		loader.body.Reset()
		loader.body.WriteByte('[')
		n = 0
		return err
	}
	err = ds.preload(func(o op) error {
		loader.rows = rows[o.tab]
		loader.appendRow(o, ds.tables[o.tab].name)
		if n++; n == 256 {
			return flush()
		}
		return nil
	})
	if err == nil && n > 0 {
		err = flush()
	}
	rc.tr.end(sp, "rows", int64(ds.preloadRows()))
	if err == nil {
		sp = rc.tr.begin(parent, "setup.barrier")
		err = barrier(loader)
		rc.tr.end(sp)
	}
	if err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	return srv, ds, rows, nil
}

// runHTTP is http_covar.
func runHTTP(rc *runCtx) error {
	const nConn, nWin = 2, 5
	m := mix{0.45, 0.45, 0.10, 0}
	setupSpan := rc.tr.begin(rc.root, "setup")
	t0 := time.Now()
	srv, ds, rows, err := httpSetup(rc, setupSpan)
	setup := time.Since(t0)
	rc.tr.end(setupSpan)
	if err != nil {
		return err
	}
	defer srv.stop()

	conns := make([]*conn, nConn)
	gens := make([]*churnGen, nConn)
	for i := range conns {
		gens[i] = newChurnGen(ds, rc.seed, m, i, nConn)
		conns[i] = newConn(srv.base, gens[i], rows[ds.fact], rc.seed+uint64(i))
	}
	admin := newConn(srv.base, nil, nil, 0) // boundary readings, barrier and oracle

	hr := &httpRun{rc: rc, req: newSamples(nWin), model: newSamples(nWin)}
	hr.span = rc.tr.begin(rc.root, "measure")
	start := time.Now()
	hr.win = newWindows(start, rc.sz.warm, rc.measured(), nWin)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) { defer wg.Done(); hr.drive(c) }(c)
	}
	acked := make([]int64, nWin+1)
	mem := make([]memStats, nWin+1)
	var before statsBody
	for i := 0; i <= nWin; i++ {
		time.Sleep(time.Until(start.Add(rc.sz.warm + time.Duration(i)*hr.win.each)))
		for _, c := range conns {
			acked[i] += c.acked.Load()
		}
		if mem[i], err = getMemStats(admin); err != nil {
			break
		}
		if i == 0 {
			before, err = getStats(admin)
		}
	}
	hr.stop.Store(true)
	wg.Wait()
	rc.tr.end(hr.span)
	if err != nil {
		return err
	}
	wall := time.Duration(nWin) * hr.win.each
	flushStart := time.Now()
	if err := barrier(admin); err != nil {
		return err
	}
	flush := time.Since(flushStart)
	after, err := getStats(admin)
	if err != nil {
		return err
	}
	if after.LastError != nil {
		return fmt.Errorf("writer: %s", *after.LastError)
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}

	res := rc.res
	var bytesIn, bytesOut, ok2xx, other, insertNs, rowsAcked int64
	for _, c := range conns {
		res.Attempted += c.attempts
		res.Failed += c.failed
		bytesIn, bytesOut, insertNs, rowsAcked = bytesIn+c.bytesIn, bytesOut+c.bytesOut, insertNs+c.insertNs, rowsAcked+c.acked.Load()
		for code, n := range c.status {
			if code/100 == 2 {
				ok2xx += n
			} else {
				other += n
			}
		}
	}
	ops, allocs := make([]float64, nWin), make([]float64, nWin)
	for i := range ops {
		n := float64(acked[i+1] - acked[i])
		ops[i] = n / hr.win.each.Seconds()
		allocs[i] = float64(mem[i+1].Mallocs-mem[i].Mallocs) / n
	}
	measuredOps := acked[nWin] - acked[0]
	res.e2e("ingest_ops_s", ofParts(ops, int(measuredOps)))
	res.e2e("allocs_per_op", ofParts(allocs, int(measuredOps)))
	p50, _ := hr.req.quantile(0.5)
	res.e2e("write_p50_ms", p50)
	m50, _ := hr.model.quantile(0.5)
	res.e2e("model_p50_ms", m50)
	res.e2e("peak_rss_mb", metric{Value: rss, N: 1})

	if p99, ok := hr.req.quantile(0.99); ok {
		res.layer("http.req_p99_ms", p99.Value, p99.N)
	}
	res.layer("http.bytes_in_per_row", float64(bytesIn)/float64(rowsAcked), int(rowsAcked))
	res.layer("http.bytes_out_per_row", float64(bytesOut)/float64(rowsAcked), int(rowsAcked))
	res.layer("http.status_2xx", float64(ok2xx), 1)
	res.layer("http.status_other", float64(other), 1)
	res.layer("trace.ingest_ops_s", medianOf(ops), int(measuredOps))
	res.layer("serve.flush_ms", ms(flush), 1)
	serveLayer(res, readPoints(after.Metrics, 1).minus(readPoints(before.Metrics, 1)), wall, measuredOps, false)
	rtLayer(res, mem[0], mem[nWin], measuredOps)
	for _, p := range after.Metrics {
		for _, kind := range httpModelKinds {
			if p.Name == "borg_model_train_ns" && p.Labels == `{kind="`+kind+`"}` && p.Count > 0 {
				res.layer("ml.train_ms."+kind, float64(p.Sum)/float64(p.Count)/1e6, int(p.Count))
			}
		}
	}
	rc.registry = after.Metrics

	oracleSpan := rc.tr.begin(rc.root, "oracle")
	batch, err := checkOracle(rc, oracleSpan, ds, gens, ds.features, served{
		inserts: after.Inserts, deletes: after.Deletes, count: after.Count,
		mean: func(a string) (float64, error) {
			v, ok := after.Means[a]
			if !ok {
				return 0, errors.New("not in /stats")
			}
			return v, nil
		},
	})
	rc.tr.end(oracleSpan)
	if err != nil {
		return err
	}
	res.layer("core.covariance_s", batch.Seconds(), 3)
	srv.stop()

	if rc.trace {
		// The identical streams through the in-process facade: what is
		// left of the client's time per row is the HTTP layer's.
		inproc, err := replayFacade(rc, ds, m, nConn, min(int(rowsAcked)/nConn, 4*rc.sz.replayOps))
		if err != nil {
			return err
		}
		res.layer("http.overhead_us_per_row", (float64(insertNs)/float64(rowsAcked)-inproc)/1e3, int(rowsAcked))
	}
	return timedSetups(rc, setup, func() error {
		again, _, _, err := httpSetup(rc, 0)
		if err != nil {
			return err
		}
		again.stop()
		return nil
	})
}

// replayFacade applies each connection's stream, rowsEach rows of it,
// from a goroutine of its own to an in-process server configured as
// borg-serve configures its own, and returns the producers' ns per row.
func replayFacade(rc *runCtx, ds *dataset, m mix, producers, rowsEach int) (float64, error) {
	sp := rc.tr.begin(rc.root, "replay.facade")
	defer rc.tr.end(sp)
	sv, err := startInproc(rc, sp, func() *dataset { return ds }, 1, borg.PayloadCovar)
	if err != nil {
		return 0, err
	}
	defer sv.srv.Close()
	var wg sync.WaitGroup
	var ns, failed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(g *churnGen) {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < rowsEach; i++ {
				if send(sv.srv, ds, g.next()) != nil {
					failed.Add(1)
				}
			}
			ns.Add(int64(time.Since(t0)))
		}(newChurnGen(ds, rc.seed, m, p, producers))
	}
	wg.Wait()
	if err := sv.srv.Flush(); err != nil {
		return 0, err
	}
	if failed.Load() > 0 {
		return 0, fmt.Errorf("facade replay: %d ops failed", failed.Load())
	}
	return float64(ns.Load()) / float64(producers*rowsEach), nil
}
