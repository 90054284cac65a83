package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to a daemon, used by one
// closed-loop client at a time. It writes each request with a single
// write and reads the answer on the calling goroutine, so the client
// spends little CPU beside the daemon it measures and hands no request
// between goroutines. Bodies are decoded for Content-Length and chunked
// framing, which is all redpatchd sends.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	out  []byte // request scratch
	body []byte // response body; valid until the next request
}

func newConn(base string) *conn {
	return &conn{addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close() // nothing to flush: requests are written whole
		c.nc = nil
	}
}

// result is one response as the client saw it.
type result struct {
	status    int
	body      []byte        // valid until the connection's next request
	firstLine time.Duration // request start to the first complete body line
	latency   time.Duration // request start to the end of the body
	err       error
}

func (r request) route() (method, path string) {
	switch r.kind {
	case kindEvaluate:
		return http.MethodPost, "/api/v2/evaluate"
	case kindSweep:
		return http.MethodPost, "/api/v2/sweep/stream"
	case kindRollout:
		return http.MethodPost, "/api/v2/rollout/sweep"
	case kindScenarioCreate:
		return http.MethodPost, "/api/v2/scenarios"
	default:
		return http.MethodDelete, "/api/v2/scenarios/" + r.scenario
	}
}

// wantStatus is the status a correct answer carries.
func (r request) wantStatus() int {
	switch r.kind {
	case kindScenarioCreate:
		return http.StatusCreated
	case kindScenarioDelete:
		return http.StatusNoContent
	}
	return http.StatusOK
}

// send issues one request and reads the whole answer. A transport error
// drops the connection; the next request dials a new one.
func (c *conn) send(ctx context.Context, req request) result {
	if err := ctx.Err(); err != nil {
		return result{err: err}
	}
	method, path := req.route()
	start := time.Now()
	res, err := c.roundTrip(method, path, req.body, start)
	res.latency = time.Since(start)
	if err != nil {
		c.close()
		res.err = fmt.Errorf("%s %s: %w", method, path, err)
		return res
	}
	if res.firstLine == 0 {
		res.firstLine = res.latency
	}
	if res.status != req.wantStatus() {
		res.err = fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, res.status, req.wantStatus(), res.body)
	}
	return res
}

func (c *conn) roundTrip(method, path string, body []byte, start time.Time) (result, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return result{}, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.out = fmt.Appendf(c.out[:0], "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		c.out = fmt.Appendf(c.out, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.out = append(append(c.out, "\r\n"...), body...)
	if _, err := c.nc.Write(c.out); err != nil {
		return result{}, err
	}

	line, err := c.readLine()
	if err != nil {
		return result{}, fmt.Errorf("reading the status line: %w", err)
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	status, err := strconv.Atoi(code)
	if err != nil || !strings.HasPrefix(proto, "HTTP/1.") {
		return result{}, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		h, err := c.readLine()
		if err != nil {
			return result{}, fmt.Errorf("reading headers: %w", err)
		}
		if h == "" {
			break
		}
		k, v, _ := strings.Cut(h, ":")
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if length, err = strconv.Atoi(v); err != nil {
				return result{}, fmt.Errorf("bad Content-Length %q", v)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(v, "chunked")
		case "connection":
			closing = strings.EqualFold(v, "close")
		}
	}

	res := result{status: status}
	c.body = c.body[:0]
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
	case chunked:
		for {
			sizeLine, err := c.readLine()
			if err != nil {
				return res, fmt.Errorf("reading a chunk size: %w", err)
			}
			sizeHex, _, _ := strings.Cut(sizeLine, ";")
			size, err := strconv.ParseUint(strings.TrimSpace(sizeHex), 16, 32)
			if err != nil {
				return res, fmt.Errorf("bad chunk size %q", sizeLine)
			}
			if size == 0 {
				for { // trailers, then the blank line
					if t, err := c.readLine(); err != nil || t == "" {
						if err != nil {
							return res, err
						}
						break
					}
				}
				break
			}
			if err := c.readBody(int(size), &res, start); err != nil {
				return res, err
			}
			if crlf, err := c.readLine(); err != nil || crlf != "" {
				return res, errors.New("chunk not followed by CRLF")
			}
		}
	case length >= 0:
		if err := c.readBody(length, &res, start); err != nil {
			return res, err
		}
	default:
		return res, errors.New("answer has neither Content-Length nor chunked framing")
	}
	res.body = c.body
	if closing {
		c.close()
	}
	return res, nil
}

// readBody appends n body bytes, noting when the first line completes.
func (c *conn) readBody(n int, res *result, start time.Time) error {
	from := len(c.body)
	c.body = slices.Grow(c.body, n)[:from+n]
	if _, err := io.ReadFull(c.br, c.body[from:]); err != nil {
		return fmt.Errorf("reading the body: %w", err)
	}
	if res.firstLine == 0 && bytes.IndexByte(c.body[from:], '\n') >= 0 {
		res.firstLine = time.Since(start)
	}
	return nil
}

// readLine reads one CRLF-terminated line without its terminator.
func (c *conn) readLine() (string, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}
