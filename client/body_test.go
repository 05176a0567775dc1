package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// bodyTransport answers every request with body under the given declared
// length (−1: unknown).
type bodyTransport struct {
	body   []byte
	length int64
}

func (b bodyTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
		ContentLength: b.length, Body: io.NopCloser(bytes.NewReader(b.body))}, nil
}

// TestReadBodyPresized: a body read against its declared length gets one
// buffer of that length and one spare byte; an unknown length reads as
// io.ReadAll reads; a bogus huge length allocates at most maxPresize up
// front; a body longer than declared is read whole; and one shorter than
// declared is io.ErrUnexpectedEOF.
func TestReadBodyPresized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 150_000)
	for _, tc := range []struct {
		name    string
		size    int64
		wantCap int // 0: not checked
		wantErr error
	}{
		{"declared", int64(len(body)), len(body) + 1, nil},
		{"unknown", -1, 0, nil},
		{"zero", 0, 0, nil},
		{"longer than declared", 1000, 0, nil},
		{"shorter than declared", int64(len(body)) + 1, len(body) + 2, io.ErrUnexpectedEOF},
		{"bogus", 1 << 50, 0, io.ErrUnexpectedEOF},
	} {
		got, err := readBody(bytes.NewReader(body), tc.size)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.wantErr)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%s: read %d bytes, want the body's %d", tc.name, len(got), len(body))
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Fatalf("%s: buffer cap %d, want %d", tc.name, cap(got), tc.wantCap)
		}
		if cap(got) > maxPresize+len(body) {
			t.Fatalf("%s: buffer cap %d", tc.name, cap(got))
		}
	}
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(body)
		if _, err := readBody(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a presized read allocates %v times, want 1", allocs)
	}
}

// TestShortBodyIsTransportError: a response that ends before its
// Content-Length is a transport failure, which the SDK retries and reports
// as ErrUnavailable, not a decode error on a truncated document.
func TestShortBodyIsTransportError(t *testing.T) {
	doc := []byte(`{"id":"job_1","k":2}` + "\n")
	c := New("http://genclusd.invalid", WithRetries(0, 0), WithHTTPClient(&http.Client{
		Transport: bodyTransport{body: doc, length: int64(len(doc)) + 10}}))
	_, err := c.JobResult(context.Background(), "job_1")
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("short body: err %v, want a transport error (unexpected EOF)", err)
	}
	c = New("http://genclusd.invalid", WithRetries(0, 0), WithHTTPClient(&http.Client{
		Transport: bodyTransport{body: doc, length: int64(len(doc))}}))
	res, err := c.JobResult(context.Background(), "job_1")
	if err != nil || res.ID != "job_1" || res.K != 2 {
		t.Fatalf("exact body: %+v, %v", res, err)
	}
}
