package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Event is one Server-Sent Event from GET /v1/jobs/{id}/events. Exactly one
// of Job and Progress is set: "state" events carry the full job status
// (first event on connect, last event at terminal), "progress" events carry
// a fit progress report.
type Event struct {
	Type     string    // SSE event name: "state" or "progress"
	Job      *Job      // set for "state" events
	Progress *Progress // set for "progress" events
}

// ErrStopStreaming, returned from a StreamEvents callback, ends the stream
// early without error.
var ErrStopStreaming = errors.New("client: stop streaming")

// StreamEvents subscribes to a job's live event stream and invokes fn for
// every event until the server closes the stream (the job reached a
// terminal state), fn returns an error (ErrStopStreaming ends cleanly), or
// ctx is cancelled. Unknown event types are skipped, so servers may add
// event kinds without breaking older clients.
func (c *Client) StreamEvents(ctx context.Context, jobID string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if tp := callTraceparent(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: stream events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return apiError(resp.StatusCode, data)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var evType string
	var data strings.Builder
	flush := func() error {
		defer func() { evType = ""; data.Reset() }()
		if data.Len() == 0 {
			return nil
		}
		ev, ok, err := parseEvent(evType, data.String())
		if err != nil {
			return err
		}
		if !ok {
			return nil // unknown event type: forward-compatible skip
		}
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				if errors.Is(err, ErrStopStreaming) {
					return nil
				}
				return err
			}
		case strings.HasPrefix(line, "event:"):
			evType = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case strings.HasPrefix(line, ":"):
			// comment/keep-alive; ignore
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("client: read event stream: %w", err)
	}
	// Stream ended mid-event (no trailing blank line): deliver what we have.
	if err := flush(); err != nil && !errors.Is(err, ErrStopStreaming) {
		return err
	}
	return nil
}

func parseEvent(evType, payload string) (Event, bool, error) {
	switch evType {
	case "state":
		var j Job
		if err := json.Unmarshal([]byte(payload), &j); err != nil {
			return Event{}, false, fmt.Errorf("client: decode state event: %w", err)
		}
		return Event{Type: evType, Job: &j}, true, nil
	case "progress":
		var p Progress
		if err := json.Unmarshal([]byte(payload), &p); err != nil {
			return Event{}, false, fmt.Errorf("client: decode progress event: %w", err)
		}
		return Event{Type: evType, Progress: &p}, true, nil
	default:
		return Event{}, false, nil
	}
}
