package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpz"
	"dpz/client"
	"dpz/internal/server"
)

// clients is the closed-loop client count. Each client sends its next
// request only when the previous one has completed. One client keeps the
// 2-vCPU host the sizing in README.md was taken on below saturation: with
// one client per core, the clients, dpzd's handlers and the collector
// queue for the two cores, and the read tail then follows the host's
// spare capacity rather than the program (README.md, Measured spread).
const clients = 1

// writeShare is the fraction of served requests that are compress writes;
// the rest are preview, query and stat reads. No trace of dpzd traffic
// exists to take it from, so it is an assumption, sized so that writes
// take about a quarter of a burst's wall time and req_per_s follows the
// read path rather than compress cost (README.md, Served traffic).
const writeShare = 0.01

// keyspace is what the served slice of a workload reads and writes, with
// the library's answer for every request it can send.
type keyspace struct {
	streams  [][]byte
	ranks    []int
	previews map[[2]int][]byte // (stream, ranks) -> raw float32 from dpz.DecompressRanks
	stats    [][]byte          // dpz.Stat as JSON
	preds    []string          // one range predicate per stream
	queries  [][]byte          // the /v1/query answer built from dpz.ReadIndex, as JSON
	writes   []field
	raw      [][]byte // writes as little-endian float32, the compress request body
	written  [][]byte // dpz.Compress with dpzd's default options

	previewKeys, streamKeys *zipf
}

// serverOptions are the options dpzd compresses with when a request sets
// no knob.
func serverOptions() (dpz.Options, error) { return dpz.OptionSpec{}.Options() }

// newKeyspace computes the reference answer to every request the served
// slice can send. A nil streams serves the compressed writes themselves.
func newKeyspace(g gen, label string, streams [][]byte, ranks []int, writes []field) (*keyspace, error) {
	ks := &keyspace{ranks: ranks, previews: make(map[[2]int][]byte), writes: writes}
	opts, err := serverOptions()
	if err != nil {
		return nil, err
	}
	for _, w := range writes {
		res, err := dpz.Compress(w.data, w.dims, opts)
		if err != nil {
			return nil, fmt.Errorf("reference compress: %w", err)
		}
		ks.raw = append(ks.raw, f32bytes(w.data))
		ks.written = append(ks.written, res.Data)
	}
	if streams == nil {
		streams = ks.written
	}
	ks.streams = streams
	for i, s := range streams {
		for _, r := range ranks {
			vals, _, _, err := dpz.DecompressRanks(s, r)
			if err != nil {
				return nil, fmt.Errorf("reference preview: %w", err)
			}
			ks.previews[[2]int{i, r}] = f32bytes(vals)
		}
		info, err := dpz.Stat(s)
		if err != nil {
			return nil, fmt.Errorf("reference stat: %w", err)
		}
		js, err := json.Marshal(info)
		if err != nil {
			return nil, err
		}
		ks.stats = append(ks.stats, js)
		ix, err := dpz.ReadIndex(s)
		if err != nil {
			return nil, fmt.Errorf("reference index: %w", err)
		}
		agg := ix.Aggregate()
		pred := "max>" + strconv.FormatFloat(agg.Mean, 'g', 6, 64)
		p, err := dpz.ParsePredicate(pred)
		if err != nil {
			return nil, err
		}
		matches, err := ix.Range(p)
		if err != nil {
			return nil, fmt.Errorf("reference range: %w", err)
		}
		js, err = json.Marshal(client.QueryResult{Tiles: len(ix.Tiles), Aggregate: agg, Query: pred, Matches: matches})
		if err != nil {
			return nil, err
		}
		ks.preds = append(ks.preds, pred)
		ks.queries = append(ks.queries, js)
	}
	rng := g.rng(label + "-keys")
	ks.previewKeys = newZipf(rng, len(streams)*len(ranks))
	ks.streamKeys = newZipf(rng, len(streams))
	return ks, nil
}

// request is one served call.
type request struct {
	route string // compress, preview, query or stat
	index int    // stream index for reads, write index for compress
	ranks int
}

// pick draws the next request: writes uniformly over the write set, reads
// by skewed popularity (80% previews, 10% queries, 10% stats).
func (ks *keyspace) pick(rng *rand.Rand) request {
	if rng.Float64() < writeShare {
		return request{route: "compress", index: rng.Intn(len(ks.writes))}
	}
	switch u := rng.Float64(); {
	case u < 0.8:
		k := ks.previewKeys.draw(rng)
		return request{route: "preview", index: k / len(ks.ranks), ranks: ks.ranks[k%len(ks.ranks)]}
	case u < 0.9:
		return request{route: "query", index: ks.streamKeys.draw(rng)}
	default:
		return request{route: "stat", index: ks.streamKeys.draw(rng)}
	}
}

// served is an in-process dpzd on loopback with a dpz/client in front.
type served struct {
	ks    *keyspace
	srv   *server.Server
	hs    *http.Server
	done  chan struct{}
	cl    *client.Client
	trace atomic.Pointer[tracer] // spans for handler calls; nil when untraced
}

type reqKey struct{}

// reqHeader carries the client span id, which the handler span records as
// its parent and request id.
const reqHeader = "X-Bench-Span"

type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, id)
	}
	return t.base.RoundTrip(r)
}

// startServer runs server.New with the default Config on a loopback port.
// With traced set, the handler is wrapped to record one span per request.
func startServer(ks *keyspace, traced bool) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{ks: ks, srv: server.New(server.Config{}), done: make(chan struct{})}
	h := s.srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr := s.trace.Load()
			req := r.Header.Get(reqHeader)
			parent, _ := strconv.ParseInt(req, 10, 64)
			_, end := tr.begin("server.handler."+strings.TrimPrefix(r.URL.Path, "/v1/"), parent, req)
			inner.ServeHTTP(w, r)
			end()
		})
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.cl = &client.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}},
	}
	return s, nil
}

// close shuts the listener, drains the job pool and waits for the serve
// goroutine to exit.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	<-s.done
	s.cl.HTTPClient.CloseIdleConnections()
	return err
}

// burst sends n requests drawn from rng through the closed-loop clients
// and returns the wall time from the first send to the last reply.
func (s *served) burst(it *iter, rng *rand.Rand, n int) time.Duration {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.ks.pick(rng)
	}
	s.trace.Store(it.tr)
	runtime.GC() // the library slice's garbage is not the served slice's cost
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				s.do(it, reqs[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// do sends one request, times it from the client's side and then checks
// the answer against the library reference.
func (s *served) do(it *iter, q request) {
	ks := s.ks
	id, end := it.tr.begin("client."+q.route, it.parent, "")
	ctx := context.Background()
	if id != 0 {
		ctx = context.WithValue(ctx, reqKey{}, strconv.FormatInt(id, 10))
	}
	var got, want []byte
	var err error
	t0 := time.Now()
	switch q.route {
	case "compress":
		var res *client.CompressResult
		w := ks.writes[q.index]
		if res, err = s.cl.Compress(ctx, ks.raw[q.index], w.dims, client.CompressOptions{}); err == nil {
			got, want = res.Data, ks.written[q.index]
		}
	case "preview":
		var res *client.PreviewResult
		if res, err = s.cl.Preview(ctx, ks.streams[q.index], q.ranks, 0); err == nil {
			got, want = res.Data, ks.previews[[2]int{q.index, q.ranks}]
		}
	case "query":
		var res *client.QueryResult
		if res, err = s.cl.Query(ctx, ks.streams[q.index], client.QueryOptions{Predicates: []string{ks.preds[q.index]}}); err == nil {
			got, err = json.Marshal(res)
			want = ks.queries[q.index]
		}
	case "stat":
		var info *dpz.StreamInfo
		if info, err = s.cl.Stat(ctx, ks.streams[q.index]); err == nil {
			got, err = json.Marshal(info)
			want = ks.stats[q.index]
		}
	}
	d := time.Since(t0)
	end()
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("%s of item %d (ranks %d): %w", q.route, q.index, q.ranks, errDiffers)
	}
	kind := "read"
	if q.route == "compress" {
		kind = "write"
	}
	it.rec.add(kind, d, err)
}

// counter reads one of dpzd's counters.
func (s *served) counter(name string) uint64 { return s.srv.Metrics().Counter(name, "").Value() }
