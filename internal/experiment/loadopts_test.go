package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestParseVersionMix(t *testing.T) {
	got, err := ParseVersionMix(" 0, 1 ,2 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ParseVersionMix = %v, want [0 1 2]", got)
	}
	if got, err := ParseVersionMix(""); err != nil || got != nil {
		t.Fatalf("empty spec: %v, %v; want nil, nil", got, err)
	}
	if got, err := ParseVersionMix("   "); err != nil || got != nil {
		t.Fatalf("blank spec: %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"0,x", "-1", "1,,2", "1.5"} {
		if _, err := ParseVersionMix(bad); err == nil {
			t.Fatalf("ParseVersionMix(%q) accepted", bad)
		}
	}
}

// TestLoadOptionsValidate is the contradictory-combination table: every
// flag pairing cmd/loadgen must refuse is refused HERE, in the one shared
// Validate, so the CLI and programmatic callers cannot drift apart.
func TestLoadOptionsValidate(t *testing.T) {
	mix := &IngestMix{Dataset: "demo", Every: 5, Batch: 10}
	cases := []struct {
		name string
		opts LoadOptions
		want string // "" = valid; otherwise a substring of the error
	}{
		{"zero value", LoadOptions{}, ""},
		{"one version", LoadOptions{VersionMix: []int{2}}, ""},
		{"plain mix", LoadOptions{VersionMix: []int{0, 1}}, ""},
		{"batch", LoadOptions{Batch: 16}, ""},
		{"batched mix", LoadOptions{Batch: 16, VersionMix: []int{0, 2}}, ""},
		{"ingest mix", LoadOptions{Ingest: mix}, ""},
		{"negative batch", LoadOptions{Batch: -1}, "non-negative"},
		{"negative version", LoadOptions{VersionMix: []int{-1}}, "non-negative"},
		{"negative mix entry", LoadOptions{VersionMix: []int{0, -2}}, "non-negative"},
		{"ingest with batch", LoadOptions{Batch: 8, Ingest: mix}, "unbatched"},
		{"ingest with version", LoadOptions{VersionMix: []int{1}, Ingest: mix}, "mutually exclusive"},
		{"ingest with mix", LoadOptions{VersionMix: []int{0, 1}, Ingest: mix}, "mutually exclusive"},
		{"dormant ingest with batch", LoadOptions{Batch: 8, Ingest: &IngestMix{Dataset: "demo"}}, ""},
		{"router targets", LoadOptions{Routers: []string{"http://a:8090", "http://b:8090"}}, ""},
		{"routers with batch", LoadOptions{Batch: 16, Routers: []string{"http://a:8090"}}, ""},
		{"empty router target", LoadOptions{Routers: []string{"http://a:8090", "  "}}, "is empty"},
		{"non-URL router target", LoadOptions{Routers: []string{"a:8090"}}, "not a URL"},
		// A write proxied by one router leaves every other router's read
		// cache unfenced — rotating ingest across routers serves stale hits.
		{"ingest with routers", LoadOptions{Routers: []string{"http://a:8090", "http://b:8090"}, Ingest: mix}, "cannot rotate across routers"},
		{"dormant ingest with routers", LoadOptions{Routers: []string{"http://a:8090"}, Ingest: &IngestMix{Dataset: "demo"}}, ""},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestDriveHTTPRejectsThroughValidate proves the programmatic entry point
// refuses what Validate refuses — no second, drifting rule set.
func TestDriveHTTPRejectsThroughValidate(t *testing.T) {
	workload := []Query{{Name: "q0"}}
	bad := []LoadOptions{
		{VersionMix: []int{-1}},
		{Batch: -1},
		{Batch: 4, Ingest: &IngestMix{Dataset: "demo", Every: 2, Rows: [][]int{{0}}}},
	}
	for i, opts := range bad {
		opts.Timeout = time.Second
		if _, err := DriveHTTP("http://127.0.0.1:0", "demo/maxent", workload, opts); err == nil {
			t.Errorf("case %d: DriveHTTP accepted options Validate rejects", i)
		}
	}
}
