package experiment

import (
	"fmt"
	"strings"
)

// Validate rejects bad load options in one place — the single source of
// truth for which LoadOptions values make sense, shared by cmd/loadgen's
// flag surface and DriveHTTP's programmatic callers. The zero value is
// valid.
func (o *LoadOptions) Validate() error {
	if o.Batch < 0 {
		return fmt.Errorf("experiment: batch size must be non-negative, got %d", o.Batch)
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
