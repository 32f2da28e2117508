package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseVersionMix decodes a comma-separated snapshot-version list
// ("0,1,2"; 0 = live) into the LoadOptions.VersionMix slice. An empty
// spec is no mix at all.
func ParseVersionMix(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var mix []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("experiment: version mix entries must be non-negative integers, got %q", part)
		}
		mix = append(mix, v)
	}
	return mix, nil
}

// Validate rejects contradictory load configurations in one place — the
// single source of truth for which LoadOptions combinations make sense,
// shared by cmd/loadgen's flag surface and DriveHTTP's programmatic
// callers. The zero value is valid.
func (o *LoadOptions) Validate() error {
	if o.Batch < 0 {
		return fmt.Errorf("experiment: batch size must be non-negative, got %d", o.Batch)
	}
	for _, v := range o.VersionMix {
		if v < 0 {
			return fmt.Errorf("experiment: version mix must be non-negative, got %d", v)
		}
	}
	if o.Ingest != nil && o.Ingest.Every >= 1 {
		if o.Batch > 1 {
			return fmt.Errorf("experiment: the ingest mix requires unbatched mode")
		}
		if len(o.VersionMix) > 0 {
			return fmt.Errorf("experiment: versioned reads and an ingest mix are mutually exclusive (snapshots are immutable)")
		}
		if len(o.Routers) > 0 {
			// A router only fences its own proxied writes: rotating ingest
			// across routers would leave every other router's read cache
			// serving stale hits (docs/FLEET.md, "the contract's boundary").
			return fmt.Errorf("experiment: an ingest mix cannot rotate across routers (a write through one router leaves the others' read caches unfenced); drop -routers or the ingest mix")
		}
	}
	for i, u := range o.Routers {
		if strings.TrimSpace(u) == "" {
			return fmt.Errorf("experiment: router target %d is empty", i)
		}
		if !strings.Contains(u, "://") {
			return fmt.Errorf("experiment: router target %d: %q is not a URL (want e.g. http://host:8090)", i, u)
		}
	}
	return nil
}
