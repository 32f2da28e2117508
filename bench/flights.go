package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/schema"
)

// Attribute positions of the flights schema.
const (
	attrDate = iota
	attrOrigin
	attrDest
	attrTime
	attrDistance
	numAttrs
)

// Active-domain sizes of the paper's coarse flights relation.
const (
	numDates     = 307
	numAirports  = 54
	numTimes     = 62
	numDistances = 81
	// destsPerOrigin routes leave every origin, so 54·12 of the 54·54
	// (origin, dest) cells can hold rows and about 78 % stay empty: the
	// sparse joint support the rare-value measures need.
	destsPerOrigin = 12
	// distanceJitter is the ± spread, in bins, of distance around the value
	// the (origin, dest) route fixes.
	distanceJitter = 6
)

// flightsDomains are the active-domain sizes in schema order.
var flightsDomains = [numAttrs]int{numDates, numAirports, numAirports, numTimes, numDistances}

// flightsStructureSeed fixes which airports are busy, which routes exist and
// how far apart airports are. The run's seed draws the rows from that
// structure, so two seeds give different tables of the same shape: the model
// has about as many terms under every seed, and a timing compares across
// seeds.
const flightsStructureSeed = 20170801

func flightsSchema() *schema.Schema {
	airports := make([]string, numAirports)
	for i := range airports {
		airports[i] = fmt.Sprintf("AP%02d", i)
	}
	return schema.MustNew(
		schema.MustBinned("fl_date", 0, numDates, numDates),
		schema.MustCategorical("origin", airports),
		schema.MustCategorical("dest", airports),
		schema.MustBinned("fl_time", 0, numTimes, numTimes),
		schema.MustBinned("distance", 0, numDistances, numDistances),
	)
}

// flightGen is the seeded row source of the flights dataset. One seed is one
// sequence of rows, and the program under test only ever sees the rows.
type flightGen struct {
	rng       *rand.Rand
	dateCDF   []float64
	originCDF []float64
	timeCDF   []float64
	destCDF   []float64 // over the destsPerOrigin route slots of an origin
	routes    [numAirports][destsPerOrigin]int
	routeDist [numAirports][numAirports]int
}

// zipfCDF returns the cumulative distribution of a Zipf(s) law over n ranks,
// with the ranks dealt to values by perm.
func zipfCDF(n int, s float64, perm []int) []float64 {
	w := make([]float64, n)
	total := 0.0
	for rank, v := range perm {
		w[v] = 1 / math.Pow(float64(rank+1), s)
		total += w[v]
	}
	acc := 0.0
	for i := range w {
		acc += w[i] / total
		w[i] = acc
	}
	w[n-1] = 1
	return w
}

func newFlightGen(seed int64) *flightGen {
	g := &flightGen{rng: rand.New(rand.NewSource(seed))}
	rng := rand.New(rand.NewSource(flightsStructureSeed))

	// Dates carry a weekly rhythm and a slow seasonal swell: near-uniform,
	// as in the real table, but not flat.
	g.dateCDF = make([]float64, numDates)
	phase := rng.Float64() * 2 * math.Pi
	total := 0.0
	for d := range g.dateCDF {
		w := 1 + 0.25*math.Sin(2*math.Pi*float64(d)/7+phase) + 0.15*math.Sin(2*math.Pi*float64(d)/numDates)
		g.dateCDF[d] = w
		total += w
	}
	acc := 0.0
	for d := range g.dateCDF {
		acc += g.dateCDF[d] / total
		g.dateCDF[d] = acc
	}
	g.dateCDF[numDates-1] = 1

	g.originCDF = zipfCDF(numAirports, 1.1, rng.Perm(numAirports))
	g.timeCDF = zipfCDF(numTimes, 0.5, rng.Perm(numTimes))
	slots := make([]int, destsPerOrigin)
	for i := range slots {
		slots[i] = i
	}
	g.destCDF = zipfCDF(destsPerOrigin, 1.0, slots)

	// Airports sit on a plane; a route's distance bin is the scaled
	// distance between its endpoints.
	var x, y [numAirports]float64
	for a := 0; a < numAirports; a++ {
		x[a], y[a] = rng.Float64(), rng.Float64()
	}
	for o := 0; o < numAirports; o++ {
		for d := 0; d < numAirports; d++ {
			dist := math.Hypot(x[o]-x[d], y[o]-y[d]) / math.Sqrt2
			g.routeDist[o][d] = int(dist * (numDistances - 1))
		}
		others := rng.Perm(numAirports)
		k := 0
		for _, d := range others {
			if d == o {
				continue
			}
			g.routes[o][k] = d
			k++
			if k == destsPerOrigin {
				break
			}
		}
	}
	return g
}

// draw samples an index from a cumulative distribution.
func draw(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// next writes one encoded flight into row.
func (g *flightGen) next(row []int) {
	o := draw(g.rng, g.originCDF)
	d := g.routes[o][draw(g.rng, g.destCDF)]
	dist := g.routeDist[o][d] + g.rng.Intn(2*distanceJitter+1) - distanceJitter
	if dist < 0 {
		dist = 0
	}
	if dist >= numDistances {
		dist = numDistances - 1
	}
	row[attrDate] = draw(g.rng, g.dateCDF)
	row[attrOrigin] = o
	row[attrDest] = d
	row[attrTime] = draw(g.rng, g.timeCDF)
	row[attrDistance] = dist
}

// relation draws the next n rows as a relation.
func (g *flightGen) relation(n int) *relation.Relation {
	rel := relation.NewWithCapacity(flightsSchema(), n)
	row := make([]int, numAttrs)
	for i := 0; i < n; i++ {
		g.next(row)
		rel.MustAppend(row)
	}
	return rel
}

// rows draws the next n rows of the ingest stream, continuing the sequence
// the base relation started.
func (g *flightGen) rows(n int) [][]int {
	flat := make([]int, n*numAttrs)
	out := make([][]int, n)
	for i := range out {
		out[i] = flat[i*numAttrs : (i+1)*numAttrs : (i+1)*numAttrs]
		g.next(out[i])
	}
	return out
}

// fingerprint is the FNV-64a hash of the relation's columns, in attribute
// order: the identity of a generated dataset.
func fingerprint(rel *relation.Relation) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for a := 0; a < rel.NumAttrs(); a++ {
		for _, v := range rel.Column(a) {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			_, _ = h.Write(b[:])
		}
	}
	return h.Sum64()
}
