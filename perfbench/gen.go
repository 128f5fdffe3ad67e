package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"dpz/internal/dataset"
)

// gen derives every input of a run from the command's --seed: the same seed
// gives the same fields, tiles and request schedule. The program
// under test only ever receives the generated values.
type gen struct{ seed int64 }

// sub returns an independent seed for one named input, so adding an input
// never shifts the values of another.
func (g gen) sub(label string, i int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) // hash writes cannot fail
	x := h.Sum64() ^ uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x & math.MaxInt64)
}

func (g gen) rng(label string) *rand.Rand { return rand.New(rand.NewSource(g.sub(label, 0))) }

// field is one generated input array.
type field struct {
	name string
	dims []int
	data []float32
}

func (f field) bytes() int { return 4 * len(f.data) }

func toField(name string, d *dataset.Field) field {
	out := make([]float32, len(d.Data))
	for i, v := range d.Data {
		out[i] = float32(v)
	}
	return field{name: name, dims: d.Dims, data: out}
}

// Seeds dataset.Generate uses for the canonical CESM fields.
const (
	cldhghSeed = 2001
	phisSeed   = 2003
)

// flatField is the library's canonical CLDHGH, the flat-spectrum climate
// field (k close to M). It does not depend on the seed, so its CR, PSNR
// and error are the same in every run; the seed moves the tiles cut from
// it and the request schedule.
func flatField(rows, cols int) field {
	return toField("CLDHGH", dataset.CESM("CLDHGH", rows, cols, cldhghSeed))
}

// phisField is the library's canonical PHIS, a low-rank field (the sketch
// fit accepts with k far below M). Like flatField it does not depend on
// the seed.
func phisField(rows, cols int) field {
	return toField("PHIS", dataset.CESM("PHIS", rows, cols, phisSeed))
}

// tiles cuts n rows×cols tiles out of src at seeded offsets.
func (g gen) tiles(label string, src field, n, rows, cols int) []field {
	rng := g.rng(label)
	srows, scols := src.dims[0], src.dims[1]
	out := make([]field, n)
	for i := range out {
		r0, c0 := rng.Intn(srows-rows+1), rng.Intn(scols-cols+1)
		data := make([]float32, rows*cols)
		for r := 0; r < rows; r++ {
			copy(data[r*cols:(r+1)*cols], src.data[(r0+r)*scols+c0:(r0+r)*scols+c0+cols])
		}
		out[i] = field{name: label + "-" + strconv.Itoa(i), dims: []int{rows, cols}, data: data}
	}
	return out
}

// smallFields generates n rows×cols climate fields cycling through the
// CESM variables, each from its own seed.
func (g gen) smallFields(label string, n, rows, cols int) []field {
	names := []string{"PHIS", "CLDHGH", "FLDSC", "FREQSH", "CLDLOW"}
	out := make([]field, n)
	for i := range out {
		name := names[i%len(names)]
		out[i] = toField(label+"-"+strconv.Itoa(i), dataset.CESM(name, rows, cols, g.sub(label, i)))
	}
	return out
}

// zipf draws indices in [0, n) with probability proportional to
// 1/(rank+1), where each index's rank comes from a seeded permutation.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
}
