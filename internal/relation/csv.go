package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/schema"
)

// CSVOptions configure LoadCSV. The zero value requests the defaults
// noted on each field.
type CSVOptions struct {
	// NoHeader treats the first record as data; attributes are then named
	// col0, col1, ….
	NoHeader bool
	// Bins is the number of equi-width buckets a numeric column is
	// discretized into (default 16).
	Bins int
	// MaxCategories bounds the distinct labels a non-numeric column may
	// hold before loading fails (default 1024) — a column of near-unique
	// strings would otherwise blow up the 1D statistic families and the
	// polynomial alike.
	MaxCategories int
}

func (o *CSVOptions) setDefaults() {
	if o.Bins <= 0 {
		o.Bins = 16
	}
	if o.MaxCategories <= 0 {
		o.MaxCategories = 1024
	}
}

// LoadCSV reads a comma-separated file into an encoded relation, inferring the
// schema from the data: a column whose every value parses as a float
// becomes a Binned attribute (equi-width over the observed [min, max]
// range), any other column becomes a Categorical attribute over its
// sorted distinct values. Two passes over the records keep the logic
// simple; the relation is the summarization input, not a serving-path
// object.
func LoadCSV(r io.Reader, opts CSVOptions) (*Relation, error) {
	opts.setDefaults()
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	var header []string
	if !opts.NoHeader {
		if len(records) == 0 {
			return nil, fmt.Errorf("relation: CSV has no header row")
		}
		header, records = records[0], records[1:]
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: CSV has no data rows")
	}
	cols := len(records[0])
	if cols == 0 {
		return nil, fmt.Errorf("relation: CSV rows have no columns")
	}
	if header == nil {
		header = make([]string, cols)
		for i := range header {
			header[i] = fmt.Sprintf("col%d", i)
		}
	}
	if len(header) != cols {
		return nil, fmt.Errorf("relation: CSV header has %d columns, rows have %d", len(header), cols)
	}

	// Pass 1: infer one attribute per column.
	attrs := make([]schema.Attribute, cols)
	for c := 0; c < cols; c++ {
		attr, _, err := inferColumn(header[c], records, c, opts)
		if err != nil {
			return nil, err
		}
		attrs[c] = attr
	}
	sch, err := schema.New(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relation: inferred schema: %w", err)
	}

	// Pass 2: encode every row against the inferred schema. A column was
	// inferred Binned iff every field parsed numerically, so the
	// kind-dispatch inside EncodeRecord reproduces the inference exactly.
	rel := NewWithCapacity(sch, len(records))
	tuple := make([]int, cols)
	for i, rec := range records {
		if len(rec) != cols {
			return nil, fmt.Errorf("relation: row %d has %d fields, want %d", i+1, len(rec), cols)
		}
		if _, err := EncodeRecord(sch, rec, tuple); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", i+1, err)
		}
		if err := rel.Append(tuple); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", i+1, err)
		}
	}
	return rel, nil
}

// EncodeRecord encodes one raw textual record against a schema: binned
// attributes parse as floats (strictly — no whitespace trimming, matching
// LoadCSV's inference) and are bucketized, categorical attributes are
// matched by label. The encoded tuple is written into dst when it has the
// right length (allocated otherwise) and returned. It is the single
// field-encoding path shared by offline CSV loading and live CSV
// ingestion, so the two cannot drift.
func EncodeRecord(sch *schema.Schema, record []string, dst []int) ([]int, error) {
	if len(record) != sch.NumAttrs() {
		return nil, fmt.Errorf("record has %d fields, schema has %d attributes", len(record), sch.NumAttrs())
	}
	if len(dst) != sch.NumAttrs() {
		dst = make([]int, sch.NumAttrs())
	}
	for c, field := range record {
		attr := sch.Attr(c)
		switch attr.Kind() {
		case schema.Binned:
			x, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", attr.Name(), err)
			}
			v, err := attr.Bin(x)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", attr.Name(), err)
			}
			dst[c] = v
		default:
			v, err := attr.EncodeLabel(field)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", attr.Name(), err)
			}
			dst[c] = v
		}
	}
	return dst, nil
}

// inferColumn decides whether column c is numeric (→ Binned) or
// categorical and builds its attribute.
func inferColumn(name string, records [][]string, c int, opts CSVOptions) (schema.Attribute, bool, error) {
	numeric := true
	lo, hi := 0.0, 0.0
	for i, rec := range records {
		if c >= len(rec) {
			return schema.Attribute{}, false, fmt.Errorf("relation: row %d has no column %d (%q)", i+1, c, name)
		}
		x, err := strconv.ParseFloat(rec[c], 64)
		if err != nil {
			numeric = false
			break
		}
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	if numeric {
		if hi <= lo {
			// A constant column still needs a non-empty range; one bucket
			// suffices and Bin clamps into it.
			hi = lo + 1
		}
		// The observed maximum sits on the half-open [lo, hi) boundary;
		// Bin clamps it into the last bucket.
		a, err := schema.NewBinned(name, lo, hi, opts.Bins)
		if err != nil {
			return schema.Attribute{}, false, fmt.Errorf("relation: column %q: %w", name, err)
		}
		return a, true, nil
	}
	distinct := make(map[string]struct{})
	for _, rec := range records {
		distinct[rec[c]] = struct{}{}
		if len(distinct) > opts.MaxCategories {
			return schema.Attribute{}, false, fmt.Errorf(
				"relation: column %q exceeds %d distinct values; bucketize it upstream or raise MaxCategories",
				name, opts.MaxCategories)
		}
	}
	labels := make([]string, 0, len(distinct))
	for l := range distinct {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	a, err := schema.NewCategorical(name, labels)
	if err != nil {
		return schema.Attribute{}, false, fmt.Errorf("relation: column %q: %w", name, err)
	}
	return a, false, nil
}
