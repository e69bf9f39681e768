package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzQueryParams feeds arbitrary query strings, bodies and headers to
// the /query parameter decoders (querySQL with ?q=, form and raw bodies,
// declared-length and chunked; planParam; admissionParams; streamMode;
// routeParam). None may panic; querySQL answers errBodyTooLarge exactly
// when the statement comes from a body past maxBodyBytes; an accepted
// statement is non-empty and trimmed; an accepted weight is in
// [1, maxAdmissionWeight]. With pad set the body is padded to within 64
// bytes of the limit, so both sides of it are reached.
func FuzzQueryParams(f *testing.F) {
	_, rt := testRuntime(f, core.ServeOptions())
	s := newServer(rt, Config{MaxConcurrent: 1})
	// Non-space padding keeps TrimSpace from walking the whole body.
	padding := bytes.Repeat([]byte{'x'}, maxBodyBytes+64)
	f.Add("q=SELECT+name+FROM+country", []byte(""), false, false, false, int16(0), "")
	f.Add("plan=1&class=batch&weight=3&stream=ndjson", []byte("SELECT name FROM country"), false, false, false, int16(0), "")
	f.Add("", []byte("q=SELECT%20name%20FROM%20city"), true, false, false, int16(0), "application/x-ndjson")
	f.Add("route=fetch%3Dchatgpt&plan=true", []byte("  SELECT 1 \n"), false, true, false, int16(0), "")
	f.Add("weight=65&stream=sse&class=btach", []byte("SELECT name FROM country"), false, false, true, int16(1), "")
	f.Add("q=%20&plan=frobnicate&stream=2", []byte(" "), true, true, true, int16(0), "text/event-stream")
	f.Add("weight=-1&route=nope", []byte("SELECT 1"), false, false, true, int16(-1), "")
	f.Fuzz(func(t *testing.T, rawQuery string, body []byte, form, chunked, pad bool, delta int16, accept string) {
		if n := maxBodyBytes + int(delta)%64; pad && n > len(body) {
			body = append(body[:len(body):len(body)], padding[:n-len(body)]...)
		}
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // no known length: ContentLength -1
		}
		req := httptest.NewRequest(http.MethodPost, "/query", rd)
		req.URL.RawQuery = rawQuery
		if form {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
		req.Header.Set("Accept", accept)
		params := req.URL.Query()

		sql, err := querySQL(req, params)
		fromBody := strings.TrimSpace(params.Get("q")) == ""
		if tooLarge := fromBody && len(body) > maxBodyBytes; errors.Is(err, errBodyTooLarge) != tooLarge {
			t.Fatalf("%d-byte body (statement from body: %v): err %v, want too large = %v", len(body), fromBody, err, tooLarge)
		}
		if err == nil && (sql == "" || sql != strings.TrimSpace(sql)) {
			t.Fatalf("accepted statement %q is empty or untrimmed", sql)
		}
		_, _ = planParam(params)
		if _, weight, err := admissionParams(params); err == nil && (weight != 0 || params.Get("weight") != "") &&
			(weight < 1 || weight > maxAdmissionWeight) {
			t.Fatalf("accepted weight %d from %q", weight, params.Get("weight"))
		}
		if mode, err := streamMode(req, params); err == nil && mode != streamNone && mode != streamNDJSON && mode != streamSSE {
			t.Fatalf("accepted stream mode %q", mode)
		}
		if routes, err := s.routeParam(params); err == nil {
			for role, backend := range routes {
				if _, ok := rt.Registry().Get(backend); !ok {
					t.Fatalf("accepted route %s=%s to an undeclared backend", role, backend)
				}
			}
		}
	})
}
