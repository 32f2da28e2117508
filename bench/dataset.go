package main

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/summary"
)

// datasetName is the dataset every workload serves; at -quick scale it holds
// fewer rows under the same name.
const datasetName = "flights1m"

// scale fixes how much work a run does. The full scale is the benchmark; the
// quick scale runs the same code in the smoke test.
type scale struct {
	rows    int // rows of the base relation
	perPair int // B_s, 2D statistics per chosen attribute pair
	setups  int // times the set-up is repeated; the median is reported

	minSegments int // timed segments a run makes at least
	batch       int // queries per binary batch

	explorePool   int // distinct queries of explore-uncached
	warmPool      int // distinct queries of node-warm
	warmPasses    int // passes over the pool per node-warm segment
	routedKeys    int // distinct queries routed-mixed draws from
	routedBatches int // batches per routed-mixed segment
	routerCache   int // entries of the router's cache; 0 is the router's default
	ingestRows    int // rows per ingest batch; also the refresh threshold
	dashboard     int // queries of the ingest-refresh dashboard
	replays       int // dashboard replays per ingest cycle
	probes        int // bit-identity probes per build-cold op

	accuracy    int // heavy and light hitters per template; twice as many nulls
	traceSample int // calls the traced pass re-issues
}

var fullScale = scale{
	rows: 1_000_000, perPair: 300, setups: 3,
	minSegments: 3, batch: 32,
	explorePool: 400, warmPool: 2048, warmPasses: 48,
	routedKeys: 32768, routedBatches: 1536,
	ingestRows: 5000, dashboard: 96, replays: 40, probes: 16,
	accuracy: 100, traceSample: 48,
}

var quickScale = scale{
	rows: 20_000, perPair: 32, setups: 1,
	minSegments: 3, batch: 32,
	explorePool: 60, warmPool: 256, warmPasses: 2,
	routedKeys: 2048, routedBatches: 32, routerCache: 256,
	ingestRows: 500, dashboard: 96, replays: 2, probes: 16,
	accuracy: 100, traceSample: 8,
}

// summaryOptions is the model every workload builds.
func (sc scale) summaryOptions() summary.Options {
	return summary.Options{PairBudget: 2, PerPairBudget: sc.perPair, Heuristic: stats.Composite}
}

// accuracyTemplates are the attribute sets the paper's accuracy measures are
// averaged over.
var accuracyTemplates = [][]int{
	{attrOrigin, attrDest},
	{attrDate, attrTime},
	{attrOrigin, attrDest, attrDistance},
}

// accuracyCase is one point query with its exact answer.
type accuracyCase struct {
	pred  *query.Predicate
	truth float64
}

// accuracySet holds, for one template, the most frequent and the least
// frequent existing value combinations and a sample of nonexistent ones.
type accuracySet struct {
	heavy, light, null []accuracyCase
}

// dataset is one generated relation with the exact answers the accuracy
// measures are scored against.
type dataset struct {
	sc   scale
	seed int64
	gen  *flightGen
	rel  *relation.Relation
	acc  []accuracySet
}

func newDataset(sc scale, seed int64) *dataset {
	gen := newFlightGen(seed)
	ds := &dataset{sc: sc, seed: seed, gen: gen, rel: gen.relation(sc.rows)}
	engine := exact.New(ds.rel)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0acc))
	for _, attrs := range accuracyTemplates {
		ds.acc = append(ds.acc, newAccuracySet(engine, attrs, sc.accuracy, rng))
	}
	return ds
}

// mutable wraps a view of the relation for appends. The view's capacity is
// capped at its length, so the first append copies and the dataset's own
// relation never changes.
func (ds *dataset) mutable() *relation.Mutable {
	view, err := ds.rel.Slice(0, ds.rel.NumRows())
	if err != nil {
		panic(err) // unreachable: the whole range is always in range
	}
	return relation.NewMutable(view)
}

func pointPredicate(attrs, values []int) *query.Predicate {
	p := query.NewPredicate(numAttrs)
	for i, a := range attrs {
		p.WhereEq(a, values[i])
	}
	return p
}

func newAccuracySet(engine *exact.Engine, attrs []int, n int, rng *rand.Rand) accuracySet {
	groups := engine.GroupBy(attrs, nil) // descending by count
	var set accuracySet
	exists := make(map[core.GroupKey]bool, len(groups))
	for _, g := range groups {
		exists[core.MakeGroupKey(g.Values)] = true
	}
	for i := 0; i < n && i < len(groups); i++ {
		h, l := groups[i], groups[len(groups)-1-i]
		set.heavy = append(set.heavy, accuracyCase{pointPredicate(attrs, h.Values), h.Estimate})
		set.light = append(set.light, accuracyCase{pointPredicate(attrs, l.Values), l.Estimate})
	}
	// Nonexistent combinations by rejection; a template whose value space
	// is (nearly) full yields fewer, or none.
	values := make([]int, len(attrs))
	for tries := 0; len(set.null) < 2*n && tries < 200*n; tries++ {
		for i, a := range attrs {
			values[i] = rng.Intn(flightsDomains[a])
		}
		key := core.MakeGroupKey(values)
		if exists[key] {
			continue
		}
		exists[key] = true
		set.null = append(set.null, accuracyCase{pointPredicate(attrs, values), 0})
	}
	return set
}

// accuracyItems lists every accuracy query, in the order score reads the
// answers back.
func (ds *dataset) accuracyItems() []query.BatchItem {
	var items []query.BatchItem
	for _, set := range ds.acc {
		for _, cases := range [][]accuracyCase{set.heavy, set.light, set.null} {
			for _, c := range cases {
				items = append(items, query.BatchItem{Pred: c.pred})
			}
		}
	}
	return items
}

// accuracy is the paper's three measures, each averaged over the templates.
type accuracy struct {
	errHeavy, errLight, fRare float64
}

// score turns the answers to accuracyItems into the accuracy measures.
func (ds *dataset) score(answers []float64) accuracy {
	var out accuracy
	next := 0
	meanErr := func(cases []accuracyCase) float64 {
		errs := make([]float64, len(cases))
		for i, c := range cases {
			errs[i] = metrics.RelativeError(c.truth, answers[next])
			next++
		}
		return metrics.Mean(errs)
	}
	for _, set := range ds.acc {
		out.errHeavy += meanErr(set.heavy)
		var rare metrics.RareValueOutcome
		lightStart := next
		out.errLight += meanErr(set.light)
		for i := range set.light {
			rare.AddLightHitter(answers[lightStart+i])
		}
		for range set.null {
			rare.AddNull(answers[next])
			next++
		}
		out.fRare += rare.F()
	}
	k := float64(len(ds.acc))
	out.errHeavy, out.errLight, out.fRare = out.errHeavy/k, out.errLight/k, out.fRare/k
	return out
}

// scoreEstimator scores an in-process estimator.
func (ds *dataset) scoreEstimator(est core.Estimator) (accuracy, error) {
	items := ds.accuracyItems()
	answers := make([]float64, len(items))
	for i, it := range items {
		v, err := est.EstimateCount(it.Pred)
		if err != nil {
			return accuracy{}, err
		}
		answers[i] = v
	}
	return ds.score(answers), nil
}

// queryMix draws the benchmark's queries. Which attributes a query
// constrains, and whether by a point or a range, follows a fixed rotation, so
// a pool costs about the same under every seed; the seed picks the row of
// the relation the values come from, so a predicate's values are ones the
// data holds together.
type queryMix struct {
	ds   *dataset
	rng  *rand.Rand
	row  []int
	seen map[string]bool
}

func (ds *dataset) newQueryMix(stream int64) *queryMix {
	return &queryMix{
		ds:   ds,
		rng:  rand.New(rand.NewSource(ds.seed*1_000_003 + stream)),
		row:  make([]int, numAttrs),
		seen: make(map[string]bool),
	}
}

// attrSubsets are the 25 sets of one to three attributes, smallest first.
var attrSubsets = func() [][]int {
	var out [][]int
	for size := 1; size <= 3; size++ {
		for mask := 1; mask < 1<<numAttrs; mask++ {
			var set []int
			for a := 0; a < numAttrs; a++ {
				if mask&(1<<a) != 0 {
					set = append(set, a)
				}
			}
			if len(set) == size {
				out = append(out, set)
			}
		}
	}
	return out
}()

// predicate constrains attrs at the values of a random row. The attribute at
// position ranged (none when out of range) gets a range a sixteenth of its
// domain to each side of the value; the others get the point.
func (m *queryMix) predicate(attrs []int, ranged int) *query.Predicate {
	m.ds.rel.Row(m.rng.Intn(m.ds.rel.NumRows()), m.row)
	p := query.NewPredicate(numAttrs)
	for i, a := range attrs {
		if i != ranged {
			p.WhereEq(a, m.row[a])
			continue
		}
		w := flightsDomains[a] / 16
		lo, hi := m.row[a]-w, m.row[a]+w
		if lo < 0 {
			lo = 0
		}
		if hi >= flightsDomains[a] {
			hi = flightsDomains[a] - 1
		}
		p.WhereRange(a, lo, hi)
	}
	return p
}

func itemKey(it query.BatchItem) string {
	var b strings.Builder
	for _, a := range it.GroupBy {
		b.WriteString(strconv.Itoa(a))
		b.WriteByte(',')
	}
	b.WriteByte('/')
	if it.Pred != nil {
		b.WriteString(it.Pred.CanonicalKey())
	}
	return b.String()
}

// distinct calls next with a running index until it has n queries no two of
// which are the same. A draw that repeats an earlier query is dropped and the
// rotation moves on, so a small attribute set that runs out of new values
// does not stall it.
func (m *queryMix) distinct(n int, next func(i int) query.BatchItem) []query.BatchItem {
	items := make([]query.BatchItem, 0, n)
	for i := 0; len(items) < n; i++ {
		it := next(i)
		if key := itemKey(it); !m.seen[key] {
			m.seen[key] = true
			items = append(items, it)
		}
	}
	return items
}

// count is the i-th counting query of the rotation: the attribute sets in
// turn, and on every third lap one of the attributes as a range.
func (m *queryMix) count(i int) query.BatchItem {
	attrs := attrSubsets[i%len(attrSubsets)]
	lap := i / len(attrSubsets)
	ranged := -1
	if lap%3 == 2 {
		ranged = (lap / 3) % len(attrs)
	}
	return query.BatchItem{Pred: m.predicate(attrs, ranged)}
}

// counts returns n distinct counting queries over 1 to 3 attributes.
func (m *queryMix) counts(n int) []query.BatchItem {
	return m.distinct(n, m.count)
}

// explore returns n distinct queries, every fifth a single-attribute group-by
// filtered on the date or the time (neither carries 2D statistics, so what a
// group-by costs does not hang on the value the seed drew), the rest counts.
func (m *queryMix) explore(n int) []query.BatchItem {
	return m.distinct(n, func(i int) query.BatchItem {
		if i%5 != 4 {
			return m.count(i - i/5)
		}
		k := i / 5
		group := k % numAttrs
		filter := attrDate
		if group == attrDate || (group != attrTime && (k/numAttrs)%2 == 1) {
			filter = attrTime
		}
		ranged := -1
		if (k/numAttrs)%3 == 2 {
			ranged = 0
		}
		return query.BatchItem{Pred: m.predicate([]int{filter}, ranged), GroupBy: []int{group}}
	})
}

// zipfDraws returns n ranks in [0, keys) drawn from a Zipf(1.0) law. The
// sequence of ranks is the same under every seed, so the share of draws a
// cache of a given size can hold is too; which query a rank stands for comes
// from the seed.
func zipfDraws(n, keys int) []int {
	perm := make([]int, keys)
	for i := range perm {
		perm[i] = i
	}
	cdf := zipfCDF(keys, 1.0, perm)
	rng := rand.New(rand.NewSource(flightsStructureSeed))
	out := make([]int, n)
	for i := range out {
		out[i] = draw(rng, cdf)
	}
	return out
}
