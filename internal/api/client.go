package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
)

// DefaultTimeout bounds every apiserver call when no custom client is
// supplied — a wedged server must surface as an error, not a hung client.
const DefaultTimeout = 10 * time.Second

// defaultClient replaces the untimed http.DefaultClient.
var defaultClient = &http.Client{Timeout: DefaultTimeout}

// Client is a typed Go client for the apiserver, mirroring client-go's role
// against the Kubernetes apiserver. It speaks the /v1 surface exclusively.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8088".
	Base string
	// HTTP defaults to a client bounded by DefaultTimeout.
	HTTP *http.Client

	// retries is the number of extra attempts for idempotent (GET)
	// requests; mutations are never retried.
	retries int
	// userAgent is sent as the User-Agent header when non-empty.
	userAgent string
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient supplies the underlying *http.Client (custom transport,
// instrumentation, a timeout other than DefaultTimeout).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.HTTP = h }
}

// WithRetries retries idempotent (GET) requests up to n extra times on
// transport errors and 502/503/504, with a short capped backoff. Mutations
// (POST) are never retried — a retried submit could double-create.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.retries = n
		}
	}
}

// WithUserAgent stamps every request with the given User-Agent.
func WithUserAgent(ua string) Option {
	return func(c *Client) { c.userAgent = ua }
}

// NewClient returns a client for the given base URL. With no options it is
// call-compatible with the pre-options constructor.
func NewClient(base string, opts ...Option) *Client {
	c := &Client{Base: base}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient
}

// StatusError is a non-2xx server response: the HTTP code plus the decoded
// error-envelope message when the server sent one.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("api: HTTP %d: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("api: HTTP %d", e.Code)
}

// IsConflict reports whether err is an HTTP 409 — a duplicate pod name, or
// the single-flight /advance refusing a second concurrent advance.
func IsConflict(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusConflict
}

// IsGone reports whether err is an HTTP 410 — a continue token that points
// at events already evicted from the server's ring.
func IsGone(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusGone
}

// apiError decodes the server's {"error": ..., "code": ...} envelope into a
// StatusError. The envelope's code wins when present (it is the status the
// server meant, even through a proxy rewriting statuses); the transport
// status is the fallback.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var e errorEnvelope
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		code := e.Code
		if code == 0 {
			code = resp.StatusCode
		}
		return &StatusError{Code: code, Message: e.Error}
	}
	return &StatusError{Code: resp.StatusCode}
}

// retryableStatus reports whether a GET is worth re-sending: transient
// gateway statuses only, never client errors.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.userAgent != "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
	return c.http().Do(req)
}

func (c *Client) get(path string, out any) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			// Capped linear backoff: 50ms, 100ms, ... up to 500ms.
			d := time.Duration(attempt) * 50 * time.Millisecond
			if d > 500*time.Millisecond {
				d = 500 * time.Millisecond
			}
			time.Sleep(d)
		}
		req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
		if err != nil {
			return fmt.Errorf("api: GET %s: %w", path, err)
		}
		resp, err := c.do(req)
		if err != nil {
			lastErr = fmt.Errorf("api: GET %s: %w", path, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = apiError(resp)
			if se := new(StatusError); errors.As(lastErr, &se) && retryableStatus(se.Code) {
				continue
			}
			return lastErr
		}
		defer resp.Body.Close()
		return decodeBody(resp.Body, out)
	}
	return lastErr
}

// bodyBufs holds the buffers GET responses are read into. A list response
// is read whole before it is decoded, so reusing its buffer saves growing
// a fresh one to the size of the list on every call.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads one JSON value from r into out. The decoder copies every
// string it stores, so out keeps nothing of the buffer.
func decodeBody(r io.Reader, out any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

func (c *Client) post(path string, in, out any, wantStatus int) error {
	buf, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("api: POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return fmt.Errorf("api: POST %s: %w", path, err)
	}
	if resp.StatusCode != wantStatus {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitManifest creates a pod from a manifest.
func (c *Client) SubmitManifest(m k8s.Manifest) (PodStatus, error) {
	var st PodStatus
	err := c.post("/v1/pods", m, &st, http.StatusCreated)
	return st, err
}

// Pods lists all pods in one response (the unpaged form).
func (c *Client) Pods() ([]PodStatus, error) {
	var out []PodStatus
	err := c.get("/v1/pods", &out)
	return out, err
}

// PodsPage fetches one page of pods. phase optionally filters ("Pending",
// "Running", ...); continueTok resumes a previous page (empty starts from
// the beginning); limit caps the page (0 uses the server default). The
// returned page's Continue is empty once the listing is exhausted.
func (c *Client) PodsPage(phase, continueTok string, limit int) (PodPage, error) {
	q := url.Values{}
	if phase != "" {
		q.Set("phase", phase)
	}
	if continueTok != "" {
		q.Set("continue", continueTok)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	} else if continueTok == "" {
		// Force the paged response shape even with server-default sizing.
		q.Set("limit", fmt.Sprint(defaultPageLimit))
	}
	var out PodPage
	err := c.get("/v1/pods?"+q.Encode(), &out)
	return out, err
}

// Pod fetches one pod by name.
func (c *Client) Pod(name string) (PodStatus, error) {
	var st PodStatus
	err := c.get("/v1/pods/"+name, &st)
	return st, err
}

// Nodes lists per-device observations.
func (c *Client) Nodes() ([]NodeStatus, error) {
	var out []NodeStatus
	err := c.get("/v1/nodes", &out)
	return out, err
}

// QoS fetches the SLO accounting.
func (c *Client) QoS() (QoSStatus, error) {
	var out QoSStatus
	err := c.get("/v1/qos", &out)
	return out, err
}

// Harvest fetches the harvest controller's watermark state and counters.
func (c *Client) Harvest() (HarvestStatus, error) {
	var out HarvestStatus
	err := c.get("/v1/harvest", &out)
	return out, err
}

// State fetches the persistence layer's status.
func (c *Client) State() (StateStatus, error) {
	var out StateStatus
	err := c.get("/v1/state", &out)
	return out, err
}

// Events lists lifecycle events, optionally filtered to one pod.
func (c *Client) Events(pod string) ([]EventStatus, error) {
	path := "/v1/events"
	if pod != "" {
		path += "?pod=" + url.QueryEscape(pod)
	}
	var out []EventStatus
	err := c.get(path, &out)
	return out, err
}

// EventsPage fetches one page of events. pod and typ optionally filter;
// continueTok resumes (IsGone on the returned error means the window moved
// past the token — restart with an empty token); limit caps the page.
func (c *Client) EventsPage(pod, typ, continueTok string, limit int) (EventPage, error) {
	q := url.Values{}
	if pod != "" {
		q.Set("pod", pod)
	}
	if typ != "" {
		q.Set("type", typ)
	}
	if continueTok != "" {
		q.Set("continue", continueTok)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	} else if continueTok == "" {
		q.Set("limit", fmt.Sprint(defaultPageLimit))
	}
	var out EventPage
	err := c.get("/v1/events?"+q.Encode(), &out)
	return out, err
}

// Advance runs the simulation forward by d.
func (c *Client) Advance(d sim.Time) (now sim.Time, pending, completed int, err error) {
	var out advanceResponse
	if err = c.post("/v1/advance", advanceRequest{MS: int64(d)}, &out, http.StatusOK); err != nil {
		return 0, 0, 0, err
	}
	return sim.Time(out.NowMS), out.Pending, out.Completed, nil
}

// waitConflictCap bounds how many consecutive 409s from /advance
// WaitForPhase tolerates before giving up — another driver owns the clock.
const waitConflictCap = 50

// WaitForPhase advances the clock in steps until the pod reaches the phase
// or the budget is exhausted. A 409 from /advance (another client's advance
// in flight) is not a failure: the clock is still moving, so the wait backs
// off briefly and re-polls instead of erroring out.
func (c *Client) WaitForPhase(pod, phase string, step, budget sim.Time) (PodStatus, error) {
	if step <= 0 {
		step = sim.Second
	}
	var elapsed sim.Time
	conflicts := 0
	for {
		st, err := c.Pod(pod)
		if err != nil {
			return PodStatus{}, err
		}
		if st.Phase == phase {
			return st, nil
		}
		if elapsed >= budget {
			return st, fmt.Errorf("api: pod %s still %s after %v", pod, st.Phase, elapsed)
		}
		if _, _, _, err := c.Advance(step); err != nil {
			if IsConflict(err) {
				conflicts++
				if conflicts > waitConflictCap {
					return st, fmt.Errorf("api: pod %s: advance conflicted %d times in a row: %w",
						pod, conflicts, err)
				}
				// Give the in-flight advance wall time to finish; simulated
				// time moved without us, so don't count it against budget.
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return PodStatus{}, err
		}
		conflicts = 0
		elapsed += step
	}
}
