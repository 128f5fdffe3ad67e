package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"dpz"
)

// bench is one workload's state after set-up: its inputs, the reference
// outputs every operation is checked against, and a running dpzd.
type bench struct {
	// lib runs the workload's library slice of one iteration: interleaved
	// compress, decompress and preview calls.
	lib        func(it *iter)
	fieldBytes int // float32 bytes of the library field
	srv        *served
	burst      int // served requests per iteration
	quality    quality

	// Inputs of the traced run's layer replay and probes.
	replay  replayCase // the library field and its options
	batch   []field    // compressed sequentially and with CompressBatch
	archive []byte     // an archive of the workload's streams
}

func (b *bench) close() error { return b.srv.close() }

// quality is the rate-distortion the reference compression achieved.
type quality struct{ cr, psnr, maxErrRel float64 }

// qualityOf measures a reconstruction against the original: CR, PSNR
// against the value range, and the max absolute error relative to the
// range.
func qualityOf(orig, recon []float32, compressed int) quality {
	lo, hi := math.Inf(1), math.Inf(-1)
	var sse, maxErr float64
	for i, v := range orig {
		x := float64(v)
		lo, hi = math.Min(lo, x), math.Max(hi, x)
		d := x - float64(recon[i])
		sse += d * d
		maxErr = math.Max(maxErr, math.Abs(d))
	}
	return quality{
		cr:        float64(4*len(orig)) / float64(compressed),
		psnr:      20*math.Log10(hi-lo) - 10*math.Log10(sse/float64(len(orig))),
		maxErrRel: maxErr / (hi - lo),
	}
}

// spec names a workload and how to set it up.
type spec struct {
	name  string
	build func(g gen, traced bool) (*bench, error)
}

var workloads = []spec{
	{"flat-field", buildFlat},
	{"serve-mixed", buildServe},
}

const (
	fieldRows, fieldCols = 450, 900
	libPreviewRanks      = 8 // of k=446 (CLDHGH) and k=74 (PHIS)

	tileRows, tileCols = 64, 128
	serveStreams       = 96 // × 4 preview ranks = 384 preview keys > 256 cache entries
	serveWrites        = 16
	// Served requests per iteration: enough that every burst's read p99
	// has at least ten samples beyond it (1% of requests are writes).
	flatBurst     = 1200
	serveBurst    = 1500
	workloadTiles = 8 // tiles flat-field's served slice writes and reads
)

// tileRanks are the preview depths requested of flat-field's
// tiles; with 8 tiles every key fits in dpzd's response cache.
var tileRanks = []int{1, 4}

// bg is the context of library calls, which run to completion.
var bg = context.Background()

var errDiffers = errors.New("output differs from the library reference")

// fieldBench compresses f with opts once as the reference and returns a
// bench whose library slice repeats compress → decompress → preview on it,
// each checked against that reference. The caller adds the served slice.
func fieldBench(f field, opts dpz.Options, burst int) (*bench, []byte, error) {
	ref, err := dpz.Compress(f.data, f.dims, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("reference compress: %w", err)
	}
	dec, _, err := dpz.Decompress(ref.Data)
	if err != nil {
		return nil, nil, fmt.Errorf("reference decompress: %w", err)
	}
	prev, _, _, err := dpz.DecompressRanks(ref.Data, libPreviewRanks)
	if err != nil {
		return nil, nil, fmt.Errorf("reference preview: %w", err)
	}
	b := &bench{
		fieldBytes: f.bytes(),
		burst:      burst,
		quality:    qualityOf(f.data, dec, len(ref.Data)),
		replay:     replayCase{f, opts},
	}
	b.lib = func(it *iter) {
		var out []byte
		var vals []float32
		it.op("compress", "core.compress", func() error {
			res, err := dpz.Compress(f.data, f.dims, opts)
			if err == nil {
				out = res.Data
			}
			return err
		}, func() error { return sameBytes(out, ref.Data) })
		it.op("decompress", "core.decompress", func() (err error) {
			vals, _, err = dpz.DecompressContext(bg, ref.Data, 1)
			return err
		}, func() error { return sameFloats(vals, dec) })
		it.op("preview", "core.preview", func() (err error) {
			vals, _, _, err = dpz.DecompressRanksContext(bg, ref.Data, libPreviewRanks, 1)
			return err
		}, func() error { return sameFloats(vals, prev) })
	}
	return b, ref.Data, nil
}

// flat-field: one flat-spectrum field, exact PCA, one worker; the served
// slice writes and reads tiles cut from it, every key in the cache.
func buildFlat(g gen, traced bool) (*bench, error) {
	f := flatField(fieldRows, fieldCols)
	opts := dpz.DefaultOptions()
	opts.Workers = 1
	b, ref, err := fieldBench(f, opts, flatBurst)
	if err != nil {
		return nil, err
	}
	tiles := g.tiles("flat-tile", f, workloadTiles, tileRows, tileCols)
	ks, err := newKeyspace(g, "flat-field", nil, tileRanks, tiles)
	if err != nil {
		return nil, err
	}
	b.batch = tiles
	if b.archive, err = archiveOf([]string{f.name}, [][]byte{ref}); err != nil {
		return nil, err
	}
	return b, b.serve(g, ks, traced)
}

// serve-mixed: many small streams served by dpzd to a closed-loop client
// with skewed key popularity over more keys than the response cache holds.
// Its library slice is the low-rank regime: PHIS with sketch PCA, one
// worker, a different field, size and fit from the served writes.
func buildServe(g gen, traced bool) (*bench, error) {
	opts := dpz.DefaultOptions()
	opts.SketchPCA = true
	opts.Workers = 1
	b, _, err := fieldBench(phisField(fieldRows, fieldCols), opts, serveBurst)
	if err != nil {
		return nil, err
	}
	fields := g.smallFields("serve", serveStreams, tileRows, tileCols)
	writes := g.smallFields("write", serveWrites, tileRows, tileCols)
	sopts, err := serverOptions()
	if err != nil {
		return nil, err
	}
	streams := make([][]byte, len(fields))
	names := make([]string, len(fields))
	for i, f := range fields {
		res, err := dpz.Compress(f.data, f.dims, sopts)
		if err != nil {
			return nil, fmt.Errorf("reference compress: %w", err)
		}
		streams[i], names[i] = res.Data, f.name
	}
	ks, err := newKeyspace(g, "serve-mixed", streams, []int{1, 2, 4, 8}, writes)
	if err != nil {
		return nil, err
	}
	b.batch = writes
	if b.archive, err = archiveOf(names, streams); err != nil {
		return nil, err
	}
	return b, b.serve(g, ks, traced)
}

// serve starts the workload's dpzd and warms its response cache with one
// untimed burst, so the timed bursts see the cache in its steady state.
func (b *bench) serve(g gen, ks *keyspace, traced bool) error {
	srv, err := startServer(ks, traced)
	if err != nil {
		return err
	}
	b.srv = srv
	warm := &iter{rec: newRecorder()}
	srv.burst(warm, g.rng("warm-up"), b.burst)
	if warm.rec.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", warm.rec.failed, warm.rec.attempted)
	}
	return nil
}

func compressBatch(fields []dpz.ArchiveField, opts dpz.Options) ([]byte, error) {
	var buf bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&buf)
	if err != nil {
		return nil, err
	}
	if _, err := aw.CompressBatch(fields, opts); err != nil {
		return nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func archiveOf(names []string, streams [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	aw, err := dpz.NewArchiveWriter(&buf)
	if err != nil {
		return nil, err
	}
	for i, s := range streams {
		if err := aw.Append(names[i], s); err != nil {
			return nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return errDiffers
	}
	return nil
}

func sameFloats(got, want []float32) error {
	if len(got) != len(want) {
		return errDiffers
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return errDiffers
		}
	}
	return nil
}

func f32bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

func float64s(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
