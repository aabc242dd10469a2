package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRunLevelCountsFailures drives one sweep level against a server
// that answers, one that fails every request with a 500 and one that is
// gone: the failures land in the errors column, never in requests.
func TestRunLevelCountsFailures(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ok.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	info := serverInfo{SampleLen: 4, Classes: 2}
	for _, c := range []struct {
		name       string
		url        string
		wantErrors bool
	}{{"200", ok.URL, false}, {"500", failing.URL, true}, {"refused", gone.URL, true}} {
		res := runLevel(c.url, info, 2, 100*time.Millisecond, 20*time.Millisecond, false)
		if got := res.errors > 0; got != c.wantErrors || (res.requests > 0) == c.wantErrors {
			t.Errorf("%s: %d requests, %d errors", c.name, res.requests, res.errors)
		}
	}
}
