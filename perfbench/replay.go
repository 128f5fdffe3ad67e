package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"dpz"
	"dpz/internal/blockio"
	"dpz/internal/eigen"
	"dpz/internal/mat"
	"dpz/internal/pca"
	"dpz/internal/quant"
	"dpz/internal/sampling"
	"dpz/internal/transform"
)

// replayCase is a field and the options the workload compresses it with.
type replayCase struct {
	f    field
	opts dpz.Options
}

// layers collects the traced run's per-layer metrics.
type layers map[string]metric

func (l layers) ms(name string, spans map[string][]float64, key string) {
	l[name] = metric{median(spans[key]), "ms"}
}

// sketchVIFFeatures mirrors the feature cap core gives the auto-standardize
// VIF probe when sketch PCA is on.
const sketchVIFFeatures = 192

// replayRounds is how many times the traced run times dpz.Compress and
// then replays its stages; the per-layer times are medians over them.
const replayRounds = 3

// replayStages calls the Stage 1–3 kernels one by one on rc's field, with
// the options core derives from rc.opts, recording a span per call under
// parent; a collection precedes each call, outside its span. It returns
// the k the replay selects and the summed wall time, in ms, of the stages
// that make up one compress on rc.opts' path.
func replayStages(tr *tracer, parent int64, rc replayCase) (k int, pathMS float64, err error) {
	o := rc.opts
	workers, seed := o.Workers, max(o.Seed, 1)
	took := map[string]float64{}
	call := func(name string, fn func()) {
		runtime.GC()
		_, end := tr.begin(name, parent, "")
		t0 := time.Now()
		fn()
		took[name] = 1e3 * since(t0)
		end()
	}
	data := float64s(rc.f.data)
	shape, err := blockio.ShapeFor(rc.f.dims, o.MaxBlocks)
	if err != nil {
		return 0, 0, err
	}
	var blocks *mat.Dense
	call("blockio.decompose", func() { blocks, err = blockio.Decompose(data, shape) })
	if err != nil {
		return 0, 0, err
	}
	call("transform.forward", func() { transform.ForwardRows(blocks.Data(), shape.M, shape.N, workers) })
	coeffs := append([]float64(nil), blocks.Data()...)
	x := blocks.T()

	vifFeatures := 0
	if o.SketchPCA {
		vifFeatures = sketchVIFFeatures
	}
	var vif []float64
	call("sampling.vif", func() { vif, err = sampling.VIF(x, 0.01, vifFeatures, seed) })
	if err != nil {
		return 0, 0, err
	}
	standardize := meanOf(vif) < sampling.VIFCutoff

	means := mat.ColMeans(x)
	var scales []float64
	if standardize {
		scales = mat.ColStds(x, means)
	}
	cov := mat.NewDense(shape.M, shape.M)
	call("mat.covariance", func() { mat.CovarianceCenteredInto(cov, x, means, scales, workers) })
	call("eigen.symeig", func() { _, err = eigen.SymEig(cov) })
	if err != nil {
		return 0, 0, err
	}
	popts := pca.Options{Standardize: standardize, Workers: workers}
	var exact, sketched *pca.Model
	call("pca.fit", func() { exact, err = pca.Fit(x, popts) })
	if err != nil {
		return 0, 0, err
	}
	popts.Sketch = true
	call("pca.fit_sketch", func() { sketched, _, err = pca.FitTVESketch(x, o.TVE, popts, seed) })
	if err != nil {
		return 0, 0, err
	}

	model, fit := exact, "pca.fit"
	if o.SketchPCA {
		model, fit = sketched, "pca.fit_sketch"
	}
	k = min(max(model.KForTVE(o.TVE), 1), shape.M)

	centered := mat.NewDense(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		src, dst := x.Row(i), centered.Row(i)
		for j := range src {
			dst[j] = src[j] - means[j]
			if scales != nil {
				dst[j] /= scales[j]
			}
		}
	}
	width := min(k+k/2+16, shape.M/2)
	call("eigen.sketch", func() { _, err = eigen.SketchGram(centered, width, eigen.DefaultOversample, 0, seed, workers) })
	if err != nil {
		return 0, 0, err
	}

	var scores *mat.Dense
	call("pca.transform", func() {
		if o.SketchPCA {
			scores = model.TransformFast(x, k, workers)
		} else {
			scores = model.Transform(x, k)
		}
	})

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	width1 := quant.Width1
	if o.IndexBytes == dpz.Index2Byte {
		width1 = quant.Width2
	}
	qz, err := quant.New(o.P*(hi-lo), width1)
	if err != nil {
		return 0, 0, err
	}
	qz.Lit32 = true
	call("quant.encode", func() {
		col := make([]float64, shape.N)
		for j := 0; j < k; j++ {
			scores.Col(j, col)
			qz.Encode(col, 1)
		}
	})

	call("transform.inverse", func() { transform.InverseRows(coeffs, shape.M, shape.N, workers) })

	out := mat.NewDense(shape.M, shape.N)
	proj := model.ProjectionMatrix(k)
	call("mat.gemmnt", func() { mat.GemmNTInto(out, proj, scores, 1) })

	for _, name := range []string{"blockio.decompose", "transform.forward", "sampling.vif", fit, "pca.transform", "quant.encode"} {
		pathMS += took[name]
	}
	return k, pathMS, nil
}

// computed kernel work at a workload's shapes: X is N×M (samples ×
// features), k the selected rank. Counts come from the shapes alone and
// repeat exactly; bytes are the operands each kernel must read and write
// once, ignoring cache misses.
func computed(l layers, m, n, k int) {
	M, N, K := float64(m), float64(n), float64(k)
	// Symmetric QR with eigenvectors, Golub & Van Loan's 9n³ estimate.
	l["eigen.symeig_flops_computed"] = metric{9 * M * M * M, "flop"}
	l["eigen.symeig_bytes_computed"] = metric{8 * 2 * M * M, "B"}
	// Upper triangle of the M×M Gram of an N×M matrix.
	l["mat.covariance_flops_computed"] = metric{N * M * (M + 1), "flop"}
	l["mat.covariance_bytes_computed"] = metric{8 * (N*M + M*M), "B"}
	// Recompose: (M×k)·(N×k)ᵀ.
	l["mat.gemmnt_flops_computed"] = metric{2 * M * N * K, "flop"}
	l["mat.gemmnt_bytes_computed"] = metric{8 * (M*K + N*K + M*N), "B"}
}

// runTraced sets the workload up once, runs the measured loop with every
// other iteration traced, then replays the compression stages and probes
// the archive, retrieval and batch layers. Its per-layer numbers never
// feed an end-to-end metric; trace.overhead_pct compares its traced and
// untraced iterations.
func runTraced(w *spec, g gen, seconds float64, dir string) (*result, error) {
	b, err := w.build(g, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	rec, trec := newRecorder(), newRecorder()
	hits0, miss0 := b.srv.counter("dpzd_cache_hits_total"), b.srv.counter("dpzd_cache_misses_total")
	ls := loop(b, g, seconds, rec, trec, tr)
	hits, miss := b.srv.counter("dpzd_cache_hits_total")-hits0, b.srv.counter("dpzd_cache_misses_total")-miss0
	shed := b.srv.counter("dpzd_shed_total")
	cs := b.srv.cl.Stats()
	if err := b.close(); err != nil {
		return nil, err
	}

	l := layers{}
	correct := true
	// Stage replay on the first replay field, checked against dpz.Compress.
	// Each round times one compress and then its replayed stages, so the
	// compress's self time (format and deflate) is a per-round difference.
	rc := b.replay
	rparent, rend := tr.begin("replay", 0, "")
	var k int
	var selfMS []float64
	for r := 0; r < replayRounds; r++ {
		runtime.GC()
		_, end := tr.begin("core.compress", rparent, "")
		t0 := time.Now()
		ref, err := dpz.Compress(rc.f.data, rc.f.dims, rc.opts)
		compressMS := 1e3 * since(t0)
		end()
		if err != nil {
			return nil, fmt.Errorf("replay compress: %w", err)
		}
		var pathMS float64
		if k, pathMS, err = replayStages(tr, rparent, rc); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		selfMS = append(selfMS, compressMS-pathMS)
		if k != ref.Stats.K {
			fmt.Printf("FAILED replay: k=%d, dpz.Compress chose k=%d\n", k, ref.Stats.K)
			correct = false
		}
	}
	dec, err := sketchDecision(rc)
	if err != nil {
		return nil, fmt.Errorf("sketch replay: %w", err)
	}
	accepted := 0.0
	if dec == pca.SketchAccept {
		accepted = 1
	}
	rend()

	batchSpeedup, err := probeBatch(tr, b.batch, rc.opts)
	if err != nil {
		return nil, err
	}
	if err := probeArchive(tr, b.archive); err != nil {
		return nil, err
	}

	spans := tr.finish()
	d, self := byName(spans, false), byName(spans, true)
	for _, name := range []string{"sampling.vif", "mat.covariance", "eigen.symeig", "pca.fit", "pca.transform",
		"eigen.sketch", "pca.fit_sketch", "blockio.decompose", "transform.forward", "transform.inverse",
		"quant.encode", "mat.gemmnt", "core.decompress", "core.preview", "archive.open", "archive.stream",
		"retrieval.read_index"} {
		l.ms(name+"_ms", d, name)
	}
	l["retrieval.range_us"] = metric{1e3 * median(d["retrieval.range"]), "us"}
	l["core.compress_self_ms"] = metric{median(selfMS), "ms"}
	shape, err := blockio.ShapeFor(rc.f.dims, rc.opts.MaxBlocks)
	if err != nil {
		return nil, err
	}
	computed(l, shape.M, shape.N, k)
	l["eigen.symeig_gflops"] = metric{l["eigen.symeig_flops_computed"].Value / 1e6 / l["eigen.symeig_ms"].Value, "GFLOP/s"}
	l["mat.gemmnt_gflops"] = metric{l["mat.gemmnt_flops_computed"].Value / 1e6 / l["mat.gemmnt_ms"].Value, "GFLOP/s"}
	l["pca.k"] = metric{float64(k), "count"}
	l["pca.sketch_accept_ratio"] = metric{accepted, "ratio"}
	l["parallel.batch_speedup"] = metric{batchSpeedup, "ratio"}
	for _, route := range []string{"compress", "preview", "query", "stat"} {
		l.ms("server.handler_ms."+route, d, "server.handler."+route)
		l.ms("client.overhead_ms."+route, self, "client."+route)
	}
	l["server.cache_hit_ratio"] = metric{float64(hits) / float64(hits+miss), "ratio"}
	l["server.shed_total"] = metric{float64(shed), "count"}
	l["client.retries"] = metric{float64(cs.Retries), "count"}
	l["client.attempts"] = metric{float64(cs.Attempts), "count"}
	l["trace.overhead_pct"] = metric{100 * (median(ls.tracedS)/median(ls.plainS) - 1), "%"}

	if err := writeSpans(dir, w.name+"-seed"+strconv.FormatInt(g.seed, 10)+".json", spans); err != nil {
		return nil, err
	}
	att, failed := rec.attempted+trec.attempted, rec.failed+trec.failed
	return &result{Correct: correct && failed == 0, Attempted: att, Failed: failed, Metrics: l}, nil
}

// sketchDecision runs the sketch fit on rc's field the way core does with
// SketchPCA on (capped VIF probe, then FitTVESketch) and returns whether
// the sketched basis was accepted, refined or abandoned.
func sketchDecision(rc replayCase) (pca.SketchDecision, error) {
	o := rc.opts
	shape, err := blockio.ShapeFor(rc.f.dims, o.MaxBlocks)
	if err != nil {
		return 0, err
	}
	blocks, err := blockio.Decompose(float64s(rc.f.data), shape)
	if err != nil {
		return 0, err
	}
	transform.ForwardRows(blocks.Data(), shape.M, shape.N, o.Workers)
	x := blocks.T()
	seed := max(o.Seed, 1)
	vif, err := sampling.VIF(x, 0.01, sketchVIFFeatures, seed)
	if err != nil {
		return 0, err
	}
	popts := pca.Options{Standardize: meanOf(vif) < sampling.VIFCutoff, Workers: o.Workers, Sketch: true}
	_, dec, err := pca.FitTVESketch(x, o.TVE, popts, seed)
	return dec, err
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probeBatch returns Σ sequential dpz.Compress walls on one worker ÷ one
// CompressBatch wall on every core, over the same fields and options.
func probeBatch(tr *tracer, fields []field, opts dpz.Options) (float64, error) {
	seqOpts, batchOpts := opts, opts
	seqOpts.Workers, batchOpts.Workers = 1, 0
	parent, end := tr.begin("parallel.batch_probe", 0, "")
	defer end()
	batch := make([]dpz.ArchiveField, len(fields))
	var seq float64
	for i, f := range fields {
		batch[i] = dpz.ArchiveField{Name: f.name, Data: float64s(f.data), Dims: f.dims}
		_, e := tr.begin("core.compress_sequential", parent, "")
		t0 := time.Now()
		_, err := dpz.Compress(f.data, f.dims, seqOpts)
		seq += since(t0)
		e()
		if err != nil {
			return 0, err
		}
	}
	_, e := tr.begin("dpz.compress_batch", parent, "")
	t0 := time.Now()
	_, err := compressBatch(batch, batchOpts)
	wall := since(t0)
	e()
	return seq / wall, err
}

// probeArchive times opening the workload's archive and, per field,
// fetching its stream, reading its retrieval index and answering a range
// query from it.
func probeArchive(tr *tracer, archive []byte) error {
	parent, end := tr.begin("archive.probe", 0, "")
	defer end()
	call := func(name string, fn func() error) error {
		_, e := tr.begin(name, parent, "")
		err := fn()
		e()
		return err
	}
	pred, err := dpz.ParsePredicate("rms>0")
	if err != nil {
		return err
	}
	for r := 0; r < 20; r++ {
		var ar *dpz.ArchiveReader
		if err := call("archive.open", func() (err error) {
			ar, err = dpz.OpenArchive(bytes.NewReader(archive), int64(len(archive)))
			return err
		}); err != nil {
			return err
		}
		for _, name := range ar.Fields() {
			var s []byte
			var ix *dpz.Index
			if err := call("archive.stream", func() (err error) { s, err = ar.Stream(name); return err }); err != nil {
				return err
			}
			if err := call("retrieval.read_index", func() (err error) { ix, err = dpz.ReadIndex(s); return err }); err != nil {
				return err
			}
			if err := call("retrieval.range", func() error { _, err := ix.Range(pred); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}
