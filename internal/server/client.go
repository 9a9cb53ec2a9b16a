package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// Client speaks the trassd wire protocol; cmd/trass's -server mode and the
// load harness are built on it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7474".
	BaseURL string
	// HTTP overrides the transport; nil uses a dedicated default client.
	HTTP *http.Client
}

// NewClient builds a client for baseURL (scheme optional; bare host:port
// gets "http://").
func NewClient(baseURL string) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// StatusError is a non-200 response, with the server's in-body message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// post issues one request; the caller owns the returned body.
func (c *Client) post(ctx context.Context, path string, body any) (io.ReadCloser, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeStatusError(resp)
	}
	return resp.Body, nil
}

func decodeStatusError(resp *http.Response) error {
	var er ErrorResponse
	msg := ""
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&er); err == nil {
		msg = er.Error
	}
	return &StatusError{Code: resp.StatusCode, Message: msg}
}

// QueryStream runs one query, invoking fn per match as lines arrive, and
// returns the footer's stats. A stream that ends without a footer line was
// cut off and reports an error; a footer carrying an error surfaces it
// as-is. A line may be any length: with include_points it carries a whole
// stored trajectory.
func (c *Client) QueryStream(ctx context.Context, req QueryRequest, fn func(WireMatch) error) (*WireStats, error) {
	body, err := c.post(ctx, "/v1/query", req)
	if err != nil {
		return nil, err
	}
	defer body.Close()

	// The scanner starts at 64 kB and doubles only for a longer line.
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), math.MaxInt)
	var scratch [][2]float64
	for sc.Scan() {
		line := sc.Bytes()
		// A match line as trassd writes it skips encoding/json; the footer,
		// an escaped id and any other formatting take the general path.
		if m, ok := parseMatchLine(line, &scratch); ok {
			if err := fn(m); err != nil {
				return nil, err
			}
			continue
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var sl StreamLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return nil, fmt.Errorf("malformed stream line: %w", err)
		}
		switch {
		case sl.Done:
			if sl.Error != "" {
				return sl.Stats, fmt.Errorf("server: %s", sl.Error)
			}
			return sl.Stats, nil
		case sl.Match != nil:
			if err := fn(*sl.Match); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without footer (connection cut mid-stream?)")
}

// Healthz probes liveness; nil means the server answered 200.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeStatusError(resp)
	}
	return nil
}

// Statsz fetches the serving and storage counters.
func (c *Client) Statsz(ctx context.Context) (*StatszResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeStatusError(resp)
	}
	var st StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding statsz: %w", err)
	}
	return &st, nil
}
