// Package api exposes the orchestrator over HTTP the way Kubernetes exposes
// its apiserver: pods are submitted as JSON manifests, pod and node state is
// queryable, and the Knots cluster snapshot is served for dashboards. The
// server drives the simulation clock itself ("advance" is explicit, not
// wall-clock), so clients replay scenarios deterministically.
//
// The surface is versioned under /v1 (see API.md for the full contract):
//
//	POST /v1/pods             submit a manifest (k8s.Manifest JSON)
//	GET  /v1/pods             list pods (?limit= ?continue= ?phase=)
//	GET  /v1/pods/{name}      one pod
//	GET  /v1/nodes            per-device observations
//	GET  /v1/qos              SLO accounting
//	GET  /v1/events           lifecycle events (?pod= ?type= ?limit= ?continue=)
//	GET  /v1/harvest          harvest-controller watermark state and counters
//	GET  /v1/state            persistence (snapshot/WAL) status
//	POST /v1/advance          {"ms": 60000} — run the simulation forward
//
// Errors share one envelope, {"error": "...", "code": N}, which
// api.StatusError round-trips.
//
// Concurrency contract: the simulation is single-threaded, so mutations
// (POST /pods, POST /advance) serialize on a write lock — but reads never
// wait for it. Every GET serves from an immutable wire-form snapshot built
// under the lock and encoded entirely outside it, and /advance publishes a
// fresh snapshot *before* running the simulation, so a one-hour advance
// leaves every read endpoint answering from the pre-advance view instead of
// blocking. /advance itself is single-flight: a second concurrent advance
// fails fast with HTTP 409 rather than queueing behind the first.
//
// Durability: with a persist.Manager attached (see SetupPersistence /
// Recover), every accepted mutation is appended to a write-ahead log
// before it executes, and the full command history is periodically folded
// into a snapshot. Without one, the server is byte-identical to the
// pre-persistence build.
package api

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
)

// PodStatus is the wire form of a pod's state.
type PodStatus struct {
	Name       string `json:"name"`
	Class      string `json:"class"`
	Phase      string `json:"phase"`
	Priority   int    `json:"priority,omitempty"`
	Harvested  bool   `json:"harvested,omitempty"`
	SubmitMS   int64  `json:"submit_ms"`
	ScheduleMS int64  `json:"schedule_ms"` // -1 until first binding
	FinishMS   int64  `json:"finish_ms"`   // 0 until finished
	Crashes    int    `json:"crashes"`
}

// NodeStatus is the wire form of one device's live observation.
type NodeStatus struct {
	GPU        string  `json:"gpu"`
	Model      string  `json:"model,omitempty"`
	SMPct      float64 `json:"sm_util"`
	MemUsedMB  float64 `json:"mem_used_mb"`
	FreeMB     float64 `json:"free_reservable_mb"`
	PowerW     float64 `json:"power_w"`
	Containers int     `json:"containers"`
	Asleep     bool    `json:"asleep"`
}

// QoSStatus is the wire form of the SLO tracker.
type QoSStatus struct {
	Queries    int     `json:"queries"`
	Violations int     `json:"violations"`
	PerKilo    float64 `json:"per_kilo"`
	MeanMS     int64   `json:"mean_ms"`
	P99MS      int64   `json:"p99_ms"`
}

// EventStatus is the wire form of one lifecycle event.
type EventStatus struct {
	AtMS   int64  `json:"at_ms"`
	Type   string `json:"type"`
	Pod    string `json:"pod"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// HarvestStatus is the wire form of the harvest controller's state: the
// per-device watermark view from its last tick plus lifetime counters.
type HarvestStatus struct {
	Enabled bool `json:"enabled"`
	// Checkpoint reports whether de-harvesting preserves progress.
	Checkpoint bool                `json:"checkpoint,omitempty"`
	Watermark  float64             `json:"watermark,omitempty"`
	Nodes      []harvest.NodeState `json:"nodes,omitempty"`
	Counters   harvest.Counters    `json:"counters"`
}

// StateStatus is the wire form of /v1/state: the persistence layer's view
// of itself. With persistence disabled only Enabled and NowMS are set.
type StateStatus struct {
	Enabled bool  `json:"enabled"`
	NowMS   int64 `json:"now_ms"`
	// Persist carries the journal stats when persistence is enabled.
	Persist *persist.Stats `json:"persist,omitempty"`
}

// PodPage is the paged form of GET /v1/pods when ?limit= or ?continue= is
// present; Continue is non-empty while more items remain.
type PodPage struct {
	Items    []PodStatus `json:"items"`
	Continue string      `json:"continue,omitempty"`
}

// EventPage is the paged form of GET /v1/events.
type EventPage struct {
	Items    []EventStatus `json:"items"`
	Continue string        `json:"continue,omitempty"`
}

// errorEnvelope is the unified error body: the message plus the HTTP status
// it rode in on, so clients can round-trip a StatusError from the body
// alone.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// snapshot is one immutable wire-form view of the whole control plane. GET
// handlers only ever touch a *snapshot, never the orchestrator, so encoding
// happens with no lock held and a snapshot taken before a long advance keeps
// serving reads for its whole duration.
type snapshot struct {
	// version is the mutation counter the snapshot was built at; reads
	// compare it against Server.version to decide whether a rebuild is due.
	version  uint64
	nowMS    int64
	pods     []PodStatus // sorted by name
	podIndex map[string]int
	nodes    []NodeStatus
	qos      QoSStatus
	// events holds the retained tail of the event log; eventsBase is the
	// absolute log index of events[0] (the ring evicts oldest-first), which
	// keeps continue-tokens stable across snapshot rebuilds.
	events     []EventStatus
	eventsBase uint64
	harvest    HarvestStatus
}

// Server wraps an orchestrator. Mutations serialize on mu (the underlying
// simulation is single-threaded by design); reads serve from snap and take
// mu only shared — and only to refresh a stale snapshot.
type Server struct {
	mu      sync.RWMutex // guards orch, pods, harvest, persist use
	orch    *k8s.Orchestrator
	pods    map[string]*k8s.Pod
	harvest *harvest.Controller
	// persist journals accepted mutations; nil leaves the server
	// byte-identical to a build without the subsystem.
	persist *persist.Manager

	// advMu makes /advance single-flight: TryLock instead of Lock, so a
	// second concurrent advance is refused (409) rather than queued behind
	// up to an hour of simulation.
	advMu sync.Mutex

	// version counts mutations (bumped under mu); snap is the last published
	// wire-form view. snap.version == version means snap is current.
	version atomic.Uint64
	snap    atomic.Pointer[snapshot]
}

// NewServer wraps orch. The orchestrator must not be driven concurrently
// by anything else.
func NewServer(orch *k8s.Orchestrator) *Server {
	s := &Server{orch: orch, pods: make(map[string]*k8s.Pod)}
	// Publish an initial (empty) snapshot so reads never block on a writer
	// that started before the first GET.
	s.buildSnapshotLocked()
	return s
}

// SetHarvest attaches the run's harvest controller so /harvest serves its
// state; nil (the default) reports the subsystem disabled.
func (s *Server) SetHarvest(h *harvest.Controller) {
	s.mu.Lock()
	s.harvest = h
	s.version.Add(1)
	s.mu.Unlock()
}

// routes is the full surface: every entry is served under /v1. The label is
// the metrics path template.
func (s *Server) routes() []struct {
	path, label string
	h           http.HandlerFunc
} {
	return []struct {
		path, label string
		h           http.HandlerFunc
	}{
		{"/pods", "/pods", s.handlePods},
		{"/pods/", "/pods/{name}", s.handlePod},
		{"/nodes", "/nodes", s.handleNodes},
		{"/qos", "/qos", s.handleQoS},
		{"/events", "/events", s.handleEvents},
		{"/harvest", "/harvest", s.handleHarvest},
		{"/state", "/state", s.handleState},
		{"/advance", "/advance", s.handleAdvance},
	}
}

// Handler returns the /v1 route table, every route instrumented with the
// api_* request metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle("/v1"+rt.path, instrument("/v1"+rt.label, rt.h))
	}
	return mux
}

// buildSnapshotLocked rebuilds the wire-form view from the orchestrator and
// publishes it. The caller must hold mu (shared is enough: building only
// reads orchestrator state, and writers are excluded either way). The lone
// unguarded call from NewServer is safe — no other goroutine has the server
// yet.
func (s *Server) buildSnapshotLocked() *snapshot {
	sn := &snapshot{version: s.version.Load(), nowMS: int64(s.orch.Eng.Now())}

	sn.pods = make([]PodStatus, 0, len(s.pods))
	for _, p := range s.pods {
		sn.pods = append(sn.pods, s.status(p))
	}
	sort.Slice(sn.pods, func(i, j int) bool { return sn.pods[i].Name < sn.pods[j].Name })
	sn.podIndex = make(map[string]int, len(sn.pods))
	for i := range sn.pods {
		sn.podIndex[sn.pods[i].Name] = i
	}

	for _, g := range s.orch.Cluster.GPUs() {
		o := g.Obs
		sn.nodes = append(sn.nodes, NodeStatus{
			GPU:        g.ID(),
			Model:      g.ModelName,
			SMPct:      o.SMPct,
			MemUsedMB:  o.MemUsedMB,
			FreeMB:     g.FreeReservableMB(),
			PowerW:     o.PowerW,
			Containers: o.Containers,
			Asleep:     o.Asleep,
		})
	}

	q := s.orch.QoS
	sn.qos = QoSStatus{
		Queries:    q.Queries(),
		Violations: q.Violations(),
		PerKilo:    q.PerKilo(),
		MeanMS:     int64(q.Mean()),
		P99MS:      int64(q.Percentile(99)),
	}

	// One Events.All() pass covers both the unfiltered and per-pod views;
	// handleEvents filters the wire slice instead of re-walking the log.
	evs := s.orch.Events.All()
	sn.eventsBase = uint64(s.orch.Events.Total() - len(evs))
	sn.events = make([]EventStatus, 0, len(evs))
	for _, e := range evs {
		sn.events = append(sn.events, EventStatus{
			AtMS: int64(e.At), Type: string(e.Type), Pod: e.Pod,
			Node: e.Node, Detail: e.Detail,
		})
	}

	if s.harvest != nil {
		cfg := s.harvest.Config()
		sn.harvest = HarvestStatus{
			Enabled:    true,
			Checkpoint: cfg.Checkpoint,
			Watermark:  cfg.Watermark,
			Nodes:      s.harvest.NodeStates(),
			Counters:   s.harvest.Counters(),
		}
	}

	s.snap.Store(sn)
	return sn
}

// currentSnapshot returns a wire-form view that reflects every completed
// mutation. If a writer is mid-flight (a long /advance), it returns the last
// published snapshot instead of waiting — the copy-on-advance read path.
func (s *Server) currentSnapshot() *snapshot {
	sn := s.snap.Load()
	if sn != nil && sn.version == s.version.Load() {
		return sn
	}
	if s.mu.TryRLock() {
		sn = s.buildSnapshotLocked()
		s.mu.RUnlock()
		return sn
	}
	if sn != nil {
		return sn
	}
	// No snapshot published yet (cannot happen after NewServer, kept as a
	// belt-and-braces path): wait for the writer.
	s.mu.RLock()
	sn = s.buildSnapshotLocked()
	s.mu.RUnlock()
	return sn
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: fmt.Sprintf(format, args...), Code: status})
}

// Continue-token plumbing. Tokens are opaque to clients:
// base64url("kk1:<resource>:<position>"). Pod tokens carry the last name
// served (the pod list is name-sorted and insertion-stable, so "first name
// greater than" positioning survives any interleaved submissions); event
// tokens carry an absolute log index (the ring is append-only, so the index
// outlives snapshot rebuilds — a token pointing below the retained window
// means the events were evicted, reported as 410 Gone).
const continueTokenPrefix = "kk1"

func encodeContinue(resource, pos string) string {
	return base64.URLEncoding.EncodeToString([]byte(continueTokenPrefix + ":" + resource + ":" + pos))
}

func decodeContinue(tok, resource string) (string, error) {
	raw, err := base64.URLEncoding.DecodeString(tok)
	if err != nil {
		return "", fmt.Errorf("malformed continue token")
	}
	parts := strings.SplitN(string(raw), ":", 3)
	if len(parts) != 3 || parts[0] != continueTokenPrefix {
		return "", fmt.Errorf("malformed continue token")
	}
	if parts[1] != resource {
		return "", fmt.Errorf("continue token is for %q, not %q", parts[1], resource)
	}
	return parts[2], nil
}

// defaultPageLimit caps a paged response when ?continue= is present without
// an explicit ?limit=.
const defaultPageLimit = 500

// parseLimit reads ?limit=; ok=false means a malformed value (the caller
// 400s). Zero means "not supplied".
func parseLimit(q string) (int, bool) {
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

func (s *Server) handlePods(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.createPod(w, r)
	case http.MethodGet:
		s.listPods(w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// listPods serves GET /v1/pods: the bare name-sorted array by default, or
// — when ?limit= or ?continue= is present — a PodPage window into it.
// ?phase= filters before pagination, so a token remains valid only with
// the same filter (names still position correctly regardless).
func (s *Server) listPods(w http.ResponseWriter, r *http.Request) {
	sn := s.currentSnapshot()
	q := r.URL.Query()
	pods := sn.pods
	if phase := q.Get("phase"); phase != "" {
		filtered := make([]PodStatus, 0, len(pods))
		for _, p := range pods {
			if p.Phase == phase {
				filtered = append(filtered, p)
			}
		}
		pods = filtered
	}
	limit, ok := parseLimit(q.Get("limit"))
	if !ok {
		writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
		return
	}
	tok := q.Get("continue")
	if limit == 0 && tok == "" {
		writeJSON(w, http.StatusOK, pods)
		return
	}
	if limit == 0 {
		limit = defaultPageLimit
	}
	start := 0
	if tok != "" {
		last, err := decodeContinue(tok, "pods")
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		start = sort.Search(len(pods), func(i int) bool { return pods[i].Name > last })
	}
	end := start + limit
	if end > len(pods) {
		end = len(pods)
	}
	page := PodPage{Items: pods[start:end]}
	if page.Items == nil {
		page.Items = []PodStatus{}
	}
	if end < len(pods) {
		page.Continue = encodeContinue("pods", pods[end-1].Name)
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) createPod(w http.ResponseWriter, r *http.Request) {
	var m k8s.Manifest
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeErr(w, http.StatusBadRequest, "decode manifest: %v", err)
		return
	}
	s.mu.Lock()
	if _, exists := s.pods[m.Name]; exists {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "pod %q already exists", m.Name)
		return
	}
	// Validate is side-effect free; PodFromManifest is not (it consumes a
	// pod sequence number), so it must run after the write-ahead append —
	// otherwise a failed append would leave live state one draw ahead of
	// the journal and fork the next replay.
	if err := m.Validate(); err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// Write-ahead: journal the accepted manifest before mutating, and
	// refuse the submission if the journal write fails — a mutation the
	// log never saw would be lost by the next recovery.
	if s.persist != nil {
		if err := s.persist.Append(persist.SubmitRecord(canonicalManifest(m))); err != nil {
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "journal submit: %v", err)
			return
		}
	}
	pod, err := s.orch.PodFromManifest(m, nil)
	if err != nil {
		// Unreachable after Validate; kept as a hard failure because a
		// journaled record that cannot replay must not be served as success.
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.orch.Submit(s.orch.Eng.Now(), pod)
	s.pods[pod.Name] = pod
	st := s.status(pod)
	s.version.Add(1)
	s.maybeSnapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

// canonicalManifest re-marshals a decoded manifest so the journal carries
// one canonical byte form regardless of client formatting.
func canonicalManifest(m k8s.Manifest) []byte {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // a decoded manifest always re-marshals
	}
	return data
}

func (s *Server) handlePod(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	name := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1"), "/pods/")
	sn := s.currentSnapshot()
	i, ok := sn.podIndex[name]
	if !ok {
		writeErr(w, http.StatusNotFound, "no pod %q", name)
		return
	}
	writeJSON(w, http.StatusOK, sn.pods[i])
}

// status builds one pod's wire form; the caller must hold mu.
func (s *Server) status(p *k8s.Pod) PodStatus {
	return PodStatus{
		Name:       p.Name,
		Class:      p.Class.String(),
		Phase:      p.Phase.String(),
		Priority:   p.Priority,
		Harvested:  p.Harvested,
		SubmitMS:   int64(p.SubmitAt),
		ScheduleMS: int64(p.ScheduleAt),
		FinishMS:   int64(p.FinishedAt),
		Crashes:    p.Crashes,
	}
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.currentSnapshot().nodes)
}

func (s *Server) handleQoS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.currentSnapshot().qos)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	sn := s.currentSnapshot()
	q := r.URL.Query()
	pod, typ := q.Get("pod"), q.Get("type")
	match := func(e EventStatus) bool {
		return (pod == "" || e.Pod == pod) && (typ == "" || e.Type == typ)
	}
	limit, ok := parseLimit(q.Get("limit"))
	if !ok {
		writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
		return
	}
	tok := q.Get("continue")
	if limit == 0 && tok == "" {
		events := sn.events
		if pod != "" || typ != "" {
			events = make([]EventStatus, 0, len(sn.events))
			for _, e := range sn.events {
				if match(e) {
					events = append(events, e)
				}
			}
		}
		writeJSON(w, http.StatusOK, events)
		return
	}
	if limit == 0 {
		limit = defaultPageLimit
	}
	start := 0
	if tok != "" {
		pos, err := decodeContinue(tok, "events")
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		abs, err := strconv.ParseUint(pos, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "malformed continue token")
			return
		}
		if abs < sn.eventsBase {
			writeErr(w, http.StatusGone,
				"continue token expired: events before index %d were evicted from the ring", sn.eventsBase)
			return
		}
		start = int(abs - sn.eventsBase)
		if start > len(sn.events) {
			start = len(sn.events)
		}
	}
	page := EventPage{Items: []EventStatus{}}
	i := start
	for ; i < len(sn.events) && len(page.Items) < limit; i++ {
		if match(sn.events[i]) {
			page.Items = append(page.Items, sn.events[i])
		}
	}
	if i < len(sn.events) {
		page.Continue = encodeContinue("events", strconv.FormatUint(sn.eventsBase+uint64(i), 10))
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleHarvest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.currentSnapshot().harvest)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := StateStatus{NowMS: s.currentSnapshot().nowMS}
	// persist is set once before serving (Recover) and never cleared, so
	// the read needs no lock beyond the snapshot's.
	if s.persist != nil {
		st.Enabled = true
		stats := s.persist.StatsSnapshot()
		st.Persist = &stats
	}
	writeJSON(w, http.StatusOK, st)
}

// advanceRequest is the /advance body.
type advanceRequest struct {
	MS int64 `json:"ms"`
}

// advanceResponse reports the new simulated time.
type advanceResponse struct {
	NowMS     int64 `json:"now_ms"`
	Pending   int   `json:"pending"`
	Completed int   `json:"completed"`
	Crashes   int   `json:"crashes"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req advanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if req.MS <= 0 {
		writeErr(w, http.StatusBadRequest, "ms must be positive")
		return
	}
	const maxStep = int64(sim.Hour)
	if req.MS > maxStep {
		writeErr(w, http.StatusBadRequest, "ms exceeds the %d ms per-call cap", maxStep)
		return
	}
	if !s.advMu.TryLock() {
		writeErr(w, http.StatusConflict, "an advance is already in flight")
		return
	}
	defer s.advMu.Unlock()
	s.mu.Lock()
	if s.persist != nil {
		if err := s.persist.Append(persist.AdvanceRecord(req.MS)); err != nil {
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "journal advance: %v", err)
			return
		}
	}
	// Publish the pre-advance view first: every read issued while the
	// simulation runs is answered from this copy. The view published after
	// the last mutation is still current unless a submit has landed since.
	if sn := s.snap.Load(); sn == nil || sn.version != s.version.Load() {
		s.buildSnapshotLocked()
	}
	s.orch.Run(s.orch.Eng.Now() + sim.Time(req.MS))
	s.version.Add(1)
	resp := advanceResponse{
		NowMS:     int64(s.orch.Eng.Now()),
		Pending:   s.orch.PendingLen(),
		Completed: len(s.orch.Completed),
		Crashes:   s.orch.CrashEvents,
	}
	s.maybeSnapshotLocked()
	// Publish the post-advance view under the same lock hold so the reader
	// stampede after a long advance finds it ready instead of re-building.
	s.buildSnapshotLocked()
	s.mu.Unlock()
	mAdvanceSimMS.Add(float64(req.MS))
	writeJSON(w, http.StatusOK, resp)
}
