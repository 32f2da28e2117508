package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestLoadOptionsValidate is the bad-value table: every option value
// cmd/loadgen must refuse is refused HERE, in the one shared Validate, so
// the CLI and programmatic callers cannot drift apart.
func TestLoadOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts LoadOptions
		want string // "" = valid; otherwise a substring of the error
	}{
		{"zero value", LoadOptions{}, ""},
		{"batch", LoadOptions{Batch: 16}, ""},
		{"negative batch", LoadOptions{Batch: -1}, "non-negative"},
		{"router targets", LoadOptions{Routers: []string{"http://a:8090", "http://b:8090"}}, ""},
		{"routers with batch", LoadOptions{Batch: 16, Routers: []string{"http://a:8090"}}, ""},
		{"empty router target", LoadOptions{Routers: []string{"http://a:8090", "  "}}, "is empty"},
		{"non-URL router target", LoadOptions{Routers: []string{"a:8090"}}, "not a URL"},
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
		{Batch: -1},
		{Routers: []string{"a:8090"}},
	}
	for i, opts := range bad {
		opts.Timeout = time.Second
		if _, err := DriveHTTP("http://127.0.0.1:0", "demo/maxent", workload, opts); err == nil {
			t.Errorf("case %d: DriveHTTP accepted options Validate rejects", i)
		}
	}
}
