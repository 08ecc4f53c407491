package main

import (
	"fmt"
	"net/http"
)

// checkValue fails an operation whose result word is not the one the Go
// reference computed.
func checkValue(got, want int32) error {
	if got != want {
		return fmt.Errorf("result %d, want %d", got, want)
	}
	return nil
}

// checkReply fails a /v1/run reply that is not a 200 carrying the
// reference value under the cache state the workload promises ("hit" on
// serve-hot, "miss" on serve-cold and while warming).
func checkReply(status int, cache, wantCache string, value *int32, want int32) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if cache != wantCache {
		return fmt.Errorf("X-Risc1-Cache %q, want %q", cache, wantCache)
	}
	if value == nil {
		return fmt.Errorf("no value in the response")
	}
	return checkValue(*value, want)
}
