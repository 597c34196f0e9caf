package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"privtree/internal/conformance"
	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/server"
	"privtree/internal/transform"
	"privtree/internal/tree"
)

// request is one planned HTTP request.
type request struct {
	ID     string
	Kind   string // "encode", "verify" or "decode"
	Tenant string
	Path   string
	Body   []byte
	Rows   int
	// Due is when an open loop sends it, from the start of the load.
	Due time.Duration
	// Seed and Key are the encode seed and the fresh key name.
	Seed int64
	Key  string
	// Check marks an encode whose reply is compared byte for byte with
	// the in-process encode.
	Check bool
}

// reply is what happened to one request. Its latency runs from Due,
// which in a closed loop is when it was sent.
type reply struct {
	Status          int
	Body            []byte // kept for checked encodes, verify and decode
	Err             error
	Due, Sent, Done time.Time
	// Late is how far behind schedule the generator handed the request
	// to a connection.
	Late time.Duration
}

// tenantData is one tenant's fixed inputs: its rows, its base key
// (pre-stored before privtreed starts) and a decode request body.
type tenantData struct {
	Name       string
	CSV        []byte
	KeyWire    []byte
	DecodeBody []byte
}

// mixMinLeaf is the MinLeaf of the trees decode requests ship.
const mixMinLeaf = 5

// makeTenant generates a tenant's rows from seed, builds its base key
// and mines the tree a decode request ships back.
func makeTenant(name string, rows int, seed int64) (tenantData, error) {
	csv, err := covertypeCSV(seed, rows)
	if err != nil {
		return tenantData{}, err
	}
	// Build the key from the parsed CSV, exactly what the server sees.
	d, err := dataset.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return tenantData{}, err
	}
	key, err := pipeline.BuildKey(d, encodeOptions(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return tenantData{}, err
	}
	wire, err := transform.MarshalKey(key)
	if err != nil {
		return tenantData{}, err
	}
	enc, err := pipeline.Apply(d, key, workers)
	if err != nil {
		return tenantData{}, err
	}
	mined, err := tree.Build(enc, tree.Config{MinLeaf: mixMinLeaf, Workers: workers})
	if err != nil {
		return tenantData{}, err
	}
	blob, err := tree.Marshal(mined)
	if err != nil {
		return tenantData{}, err
	}
	body, err := json.Marshal(map[string]any{"tree": json.RawMessage(blob), "orig_csv": string(csv), "minleaf": mixMinLeaf})
	if err != nil {
		return tenantData{}, err
	}
	return tenantData{Name: name, CSV: csv, KeyWire: wire, DecodeBody: body}, nil
}

// mixPlan is the privtreed-mix schedule: rate×seconds arrivals of a
// Poisson process conditioned on their count (uniform times, sorted),
// exactly 70% encodes, 15% verifies and 15% decodes in seeded order,
// over 8 tenants.
type mixPlan struct {
	Tenants  []tenantData
	Requests []request
}

const (
	mixRate    = 20 // requests per second
	mixTenants = 8
	mixRows    = 2_000
	// checkEvery is how often an encode reply is compared byte for
	// byte with the in-process encode.
	checkEvery = 20
)

func planMix(seed int64, seconds time.Duration) (*mixPlan, error) {
	p := &mixPlan{}
	for t := 0; t < mixTenants; t++ {
		td, err := makeTenant(fmt.Sprintf("t%d", t), mixRows, seed*100+int64(2*t))
		if err != nil {
			return nil, err
		}
		p.Tenants = append(p.Tenants, td)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int(mixRate * seconds.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(seconds)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	kinds := make([]string, n)
	nEnc, nVer := n*70/100, n*15/100
	for i := range kinds {
		switch {
		case i < nEnc:
			kinds[i] = "encode"
		case i < nEnc+nVer:
			kinds[i] = "verify"
		default:
			kinds[i] = "decode"
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	encodes := 0
	for i := 0; i < n; i++ {
		td := p.Tenants[rng.Intn(mixTenants)]
		r := request{ID: fmt.Sprintf("r%d", i+1), Kind: kinds[i], Tenant: td.Name, Due: dues[i], Rows: mixRows}
		switch r.Kind {
		case "encode":
			r.Seed = rng.Int63()
			r.Key = fmt.Sprintf("e%d", i+1)
			r.Path = fmt.Sprintf("/v1/encode?key=%s&seed=%d", r.Key, r.Seed)
			r.Body = td.CSV
			r.Check = encodes%checkEvery == 0
			encodes++
		case "verify":
			r.Path = "/v1/verify?key=base"
			r.Body = td.CSV
		case "decode":
			r.Path = "/v1/decode?key=base"
			r.Body = td.DecodeBody
		}
		p.Requests = append(p.Requests, r)
	}
	return p, nil
}

// loadClient sends requests over at most two connections.
type loadClient struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newLoadClient(base string, tr *tracer) *loadClient {
	t := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &loadClient{base: base, hc: &http.Client{Transport: t, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// send makes one request and reads the whole reply; it keeps the body
// when the reply will be checked.
func (c *loadClient) send(r *request, rep *reply) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		rep.Err = err
		return
	}
	req.Header.Set("X-Privtree-Tenant", r.Tenant)
	req.Header.Set(requestIDHeader, r.ID)
	s := c.tr.open("loadgen.request", 0, r.ID, laneOf(r.ID))
	rep.Sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rep.Err = err
		rep.Done = time.Now()
		c.tr.close(s)
		return
	}
	if r.Check || r.Kind != "encode" {
		rep.Body, rep.Err = io.ReadAll(resp.Body)
	} else {
		_, rep.Err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	rep.Done = time.Now()
	c.tr.close(s)
	rep.Status = resp.StatusCode
}

// openLoop sends each request when it is due, over two connections: a
// request due while both are busy waits in a queue, and its latency
// counts from when it was due.
func (c *loadClient) openLoop(reqs []request) []reply {
	reps := make([]reply, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c.send(&reqs[i], &reps[i])
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		time.Sleep(time.Until(due))
		reps[i].Due = due
		reps[i].Late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return reps
}

// closedLoop runs two connections, each sending its next request only
// after the previous reply, until d has passed; next makes connection
// c's n-th request.
func (c *loadClient) closedLoop(d time.Duration, next func(conn, n int) request) ([]request, []reply) {
	var mu sync.Mutex
	var reqs []request
	var reps []reply
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for n := 0; time.Since(start) < d; n++ {
				r := next(conn, n)
				var rep reply
				c.send(&r, &rep)
				rep.Due = rep.Sent
				mu.Lock()
				reqs = append(reqs, r)
				reps = append(reps, rep)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return reqs, reps
}

// encodeInProcess is what POST /v1/encode returns for body and seed,
// computed with the library directly.
func encodeInProcess(body []byte, seed int64) ([]byte, error) {
	d, err := dataset.ReadCSV(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	key, err := pipeline.BuildKey(d, encodeOptions(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	schema, err := pipeline.OutputSchema(key, d.Schema())
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&out, schema), 0, workers)
	return out.Bytes(), err
}

// replyOK checks one reply: a 2xx status, and for verify ok:true, for
// decode same_outcome:true, for a checked encode the in-process bytes.
func replyOK(r *request, rep *reply) bool {
	if rep.Err != nil || rep.Status < 200 || rep.Status > 299 {
		return false
	}
	switch r.Kind {
	case "verify":
		var v struct {
			OK bool `json:"ok"`
		}
		return json.Unmarshal(rep.Body, &v) == nil && v.OK
	case "decode":
		var v struct {
			SameOutcome bool `json:"same_outcome"`
		}
		return json.Unmarshal(rep.Body, &v) == nil && v.SameOutcome
	}
	if !r.Check {
		return true
	}
	want, err := encodeInProcess(r.Body, r.Seed)
	return err == nil && bytes.Equal(want, rep.Body)
}

// httpRun is the shared frame of the privtreed workloads: pre-store the
// tenants' base keys, start privtreed repeatedly to time set-up (the
// last start serves the load), run load inside the child's timed phase,
// check every reply, and in a traced run replay a sample of requests
// through the layers. The host probe runs before and after the load,
// while privtreed is idle.
func httpRun(cfg config, tenants []tenantData, load func(c *loadClient) ([]request, []reply)) (*outcome, error) {
	keysDir, err := os.MkdirTemp(cfg.workdir, "privtreed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(keysDir)
	fs, err := server.NewFileStore(keysDir)
	if err != nil {
		return nil, err
	}
	for _, td := range tenants {
		if _, err := fs.Put(td.Name, "base", td.KeyWire); err != nil {
			return nil, err
		}
	}
	var ch *child
	defer func() {
		if ch != nil {
			ch.stop()
		}
	}()
	setupS, err := timeSetup(cfg, func() error {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return err
			}
		}
		ch, err = startChild(keysDir, cfg.tr != nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	lc := newLoadClient(ch.base, cfg.tr)
	defer lc.close()
	cfg.probe.run(probesAround)
	if err := ch.control("start", nil); err != nil {
		return nil, err
	}
	start := time.Now()
	reqs, reps := load(lc)
	wall := time.Since(start)
	var cr childReport
	if err := ch.control("stop", &cr); err != nil {
		return nil, err
	}
	cfg.probe.run(probesAround)
	o := &outcome{e2e: map[string]float64{"setup_s": setupS}, layer: map[string]float64{}, diag: map[string]float64{}, wall: wall}
	var lat, encLat, late []float64
	var rows, encRows int
	var queued, total time.Duration
	for i := range reqs {
		r, rep := &reqs[i], &reps[i]
		o.attempted++
		if !replyOK(r, rep) {
			o.failed++
			continue
		}
		d := rep.Done.Sub(rep.Due)
		lat = append(lat, ms(d))
		total += d
		queued += rep.Sent.Sub(rep.Due)
		late = append(late, ms(rep.Late))
		rows += r.Rows
		if r.Kind == "encode" {
			encLat = append(encLat, ms(d))
			encRows = r.Rows
		}
	}
	if len(lat) == 0 || len(encLat) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d attempted)", o.attempted)
	}
	o.e2e["rows_per_s"] = float64(rows) / wall.Seconds()
	o.e2e["encode_rows_per_s"] = float64(encRows) / (median(encLat) / 1e3)
	o.e2e["latency_p50_ms"] = median(lat)
	o.e2e["latency_p90_ms"] = quantile(lat, 0.9)
	o.e2e["peak_mem_mb"] = cr.Phase.PeakMemMB
	o.layer["parallel.cpu_busy_frac"] = cr.Phase.CPUBusyFrac
	o.layer["server.queue_wait.share"] = float64(queued) / float64(total)
	o.diag["requests"] = float64(len(reqs))
	o.diag["loadgen.late_p99_ms"] = quantile(late, 0.99)
	if lag := quantile(late, 0.99); lag > maxLateMs {
		o.warning = fmt.Sprintf("the load generator ran %.1f ms behind schedule at p99 (limit %d ms): the latencies of this run are not valid", lag, maxLateMs)
	}
	if q, ok := tail(len(lat)); ok {
		o.diag[fmt.Sprintf("loadgen.http_p%.0f_ms", 100*q)] = quantile(lat, q)
	}
	if cfg.tr == nil {
		return o, nil
	}
	o.spans = append(cfg.tr.take(), cr.Spans...)
	if err := traceHTTP(cfg, o, tenants, reqs, reps, keysDir); err != nil {
		return nil, err
	}
	return o, nil
}

// probesAround is how many host probe passes run just before and just
// after the load.
const probesAround = 10

// maxLateMs is how far behind schedule the open-loop generator may run
// at p99 before a run's latencies are not trusted.
const maxLateMs = 5

// replaySamples is how many requests a traced run replays.
const replaySamples = 50

// traceHTTP attributes handler time: transport is client time minus
// handler time, and a replay of sampled requests through the layer
// calls the handlers make gives the per-layer split and, subtracted
// from the handler time of the same kind, the unaccounted remainder.
func traceHTTP(cfg config, o *outcome, tenants []tenantData, reqs []request, reps []reply, keysDir string) error {
	handler := map[string]time.Duration{}
	for _, s := range o.spans {
		if s.Name == "server.handler" && s.Req != "" {
			handler[s.Req] = s.dur()
		}
	}
	var transport, client time.Duration
	handlerByKind := map[string][]float64{}
	kindCount := map[string]int{}
	for i := range reqs {
		h, ok := handler[reqs[i].ID]
		if !ok || reps[i].Err != nil {
			continue
		}
		transport += reps[i].Done.Sub(reps[i].Sent) - h
		client += reps[i].Done.Sub(reps[i].Due)
		handlerByKind[reqs[i].Kind] = append(handlerByKind[reqs[i].Kind], ms(h))
		kindCount[reqs[i].Kind]++
	}
	if client > 0 {
		o.layer["server.transport.share"] = float64(transport) / float64(client)
	}

	store, err := server.NewFileStore(keysDir + "-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(keysDir + "-replay")
	for _, td := range tenants {
		if _, err := store.Put(td.Name, "base", td.KeyWire); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	idx := rng.Perm(len(reqs))
	if len(idx) > replaySamples {
		idx = idx[:replaySamples]
	}
	replayByKind := map[string][]float64{}
	rt := cfg.tr
	t0 := time.Now()
	for n, i := range idx {
		r := &reqs[i]
		sp := rt.open("bench.replay", 0, "replay-"+r.ID, int64(1_000_000+n))
		start := time.Now()
		if err := replay(rt, sp, store, r); err != nil {
			return fmt.Errorf("replay %s %s: %w", r.Kind, r.ID, err)
		}
		replayByKind[r.Kind] = append(replayByKind[r.Kind], ms(time.Since(start)))
		rt.close(sp)
	}
	replayWall := time.Since(t0)
	replaySpans := rt.take()

	// Unaccounted share: per kind, (median handler − median replay) ÷
	// median handler, weighted by the kind's request count.
	var num, den float64
	for kind, hs := range handlerByKind {
		rs := replayByKind[kind]
		if len(rs) == 0 {
			continue
		}
		w := float64(kindCount[kind])
		num += w * (median(hs) - median(rs))
		den += w * median(hs)
	}
	if den > 0 {
		o.layer["server.unaccounted.share"] = num / den
		o.layer["trace.coverage"] = 1 - num/den
	}
	// Server and client layers are measured under load; the layers
	// below the handler come from the replay, as shares of its wall.
	load := layerMetrics(o.spans, o.wall)
	for k, v := range layerMetrics(replaySpans, replayWall) {
		if strings.HasPrefix(k, "server.") || strings.HasPrefix(k, "loadgen.") {
			v = load[k]
		}
		o.layer[k] = v
	}
	o.spans = append(o.spans, replaySpans...)
	return nil
}

// replay runs r's handler work directly, in the handler's order.
func replay(tr *tracer, sp *span, store server.KeyStore, r *request) error {
	switch r.Kind {
	case "encode":
		if _, err := store.Get(r.Tenant, r.Key); err == nil {
			return fmt.Errorf("key %s already stored", r.Key)
		}
		var d *dataset.Dataset
		var key *transform.Key
		var wire []byte
		if err := tr.do("dataset.read_csv", sp, func() (e error) {
			d, e = dataset.ReadCSV(bytes.NewReader(r.Body))
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("pipeline.build_key", sp, func() (e error) {
			key, e = pipeline.BuildKey(d, encodeOptions(), rand.New(rand.NewSource(r.Seed)))
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("transform.marshal_key", sp, func() (e error) {
			wire, e = transform.MarshalKey(key)
			return e
		}); err != nil {
			return err
		}
		if _, err := store.Put(r.Tenant, r.Key, wire); err != nil {
			return err
		}
		schema, err := pipeline.OutputSchema(key, d.Schema())
		if err != nil {
			return err
		}
		return tr.do("pipeline.apply_stream", sp, func() error {
			return pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), dataset.NewCSVSink(io.Discard, schema), 0, workers)
		})
	case "verify":
		key, err := replayKey(tr, sp, store, r)
		if err != nil {
			return err
		}
		var d *dataset.Dataset
		if err := tr.do("dataset.read_csv", sp, func() (e error) {
			d, e = dataset.ReadCSV(bytes.NewReader(r.Body))
			return e
		}); err != nil {
			return err
		}
		var rep *conformance.Report
		_ = tr.do("conformance.check_key", sp, func() error {
			rep = conformance.CheckKey(d, key)
			return nil
		})
		_ = tr.do("conformance.check_guarantee", sp, func() error {
			rep.Merge(conformance.CheckGuarantee(d, key, tree.Config{}))
			return nil
		})
		if !rep.Ok() {
			return fmt.Errorf("verify: %d violations", len(rep.Violations))
		}
		return json.NewEncoder(io.Discard).Encode(rep)
	case "decode":
		key, err := replayKey(tr, sp, store, r)
		if err != nil {
			return err
		}
		var req struct {
			Tree    json.RawMessage `json:"tree"`
			OrigCSV string          `json:"orig_csv"`
			MinLeaf int             `json:"minleaf"`
		}
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return err
		}
		cfg := tree.Config{MinLeaf: req.MinLeaf}
		var orig *dataset.Dataset
		var mined, decoded, direct *tree.Tree
		if err := tr.do("dataset.read_csv", sp, func() (e error) {
			orig, e = dataset.ReadCSV(strings.NewReader(req.OrigCSV))
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("tree.unmarshal", sp, func() (e error) {
			mined, e = tree.Unmarshal(req.Tree)
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("tree.decode_with_data", sp, func() (e error) {
			decoded, e = tree.DecodeWithData(mined, key, orig)
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("tree.build", sp, func() (e error) {
			direct, e = tree.Build(orig, cfg)
			return e
		}); err != nil {
			return err
		}
		if err := tr.do("tree.marshal", sp, func() (e error) {
			_, e = tree.Marshal(decoded)
			return e
		}); err != nil {
			return err
		}
		same := false
		_ = tr.do("tree.equivalent_on", sp, func() error {
			same = tree.EquivalentOn(direct, decoded, orig)
			return nil
		})
		if !same {
			return fmt.Errorf("decode: decoded tree differs from direct mining")
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %q", r.Kind)
}

// replayKey is loadKey: fetch the tenant's base key and decode it.
func replayKey(tr *tracer, sp *span, store server.KeyStore, r *request) (*transform.Key, error) {
	wire, err := store.Get(r.Tenant, "base")
	if err != nil {
		return nil, err
	}
	var key *transform.Key
	err = tr.do("transform.unmarshal_key", sp, func() (e error) {
		key, e = transform.UnmarshalKey(wire)
		return e
	})
	return key, err
}

// privtreedMix is the open-loop request mix.
func privtreedMix(cfg config) (*outcome, error) {
	p, err := planMix(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	o, err := httpRun(cfg, p.Tenants, func(c *loadClient) ([]request, []reply) {
		return p.Requests, c.openLoop(p.Requests)
	})
	if o != nil {
		o.offered = true
	}
	return o, err
}

// bulkRows is the size of one privtreed-bulk encode.
const bulkRows = 20_000

// privtreedBulk is the closed-loop ingest: two connections of
// back-to-back 20k-row encodes.
func privtreedBulk(cfg config) (*outcome, error) {
	rows := bulkRows
	if cfg.short {
		rows = mixRows
	}
	var tenants []tenantData
	for c := 0; c < workers; c++ {
		td, err := makeTenant(fmt.Sprintf("b%d", c), rows, cfg.seed*100+int64(2*c))
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, td)
	}
	return httpRun(cfg, tenants, func(c *loadClient) ([]request, []reply) {
		return c.closedLoop(cfg.seconds, func(conn, n int) request {
			td := tenants[conn]
			num := conn*1_000_000 + n
			id := fmt.Sprintf("r%d", num+1)
			seed := encodeSeed(cfg.seed, num)
			key := "bulk-" + id
			return request{
				ID: id, Kind: "encode", Tenant: td.Name, Rows: rows,
				Path: fmt.Sprintf("/v1/encode?key=%s&seed=%d", key, seed),
				Body: td.CSV, Seed: seed, Key: key, Check: n%checkEvery == 0,
			}
		})
	})
}
