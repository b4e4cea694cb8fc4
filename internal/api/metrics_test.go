package api

import (
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kubeknots/internal/buildinfo"
	"kubeknots/internal/cluster"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/obs"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// namedPP wraps PP under a scheduler name unique to this test binary: the
// harvest metric families live in the process-global registry, so the zero
// assertions below must scrape a label no other test increments.
type namedPP struct{ scheduler.PP }

func (namedPP) Name() string { return "PP-api-metrics" }

// newHarvestMetricsServer assembles the exact stack cmd/apiserver serves
// under a -harvest spec — API handler plus /metrics and /debug/vars on an
// outer mux — with the controller attached but the engine never advanced.
func newHarvestMetricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := sim.NewEngine(1)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	cl := cluster.New(ccfg)
	orch := k8s.NewOrchestrator(eng, cl, &namedPP{}, k8s.Config{})
	srv := NewServer(orch)
	hctl := harvest.New(orch, harvest.Config{Enabled: true})
	orch.Start()
	hctl.Start()
	srv.SetHarvest(hctl)

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", obs.PromHandler(obs.Default()))
	buildinfo.Publish()
	mux.Handle("/debug/vars", expvar.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsHarvestSeriesAtZero: attaching a harvest controller must
// materialize every harvest_* series immediately — present and zero before
// the first tick — so dashboards and alerts see the full schema from
// scrape one rather than series popping into existence on first increment.
func TestMetricsHarvestSeriesAtZero(t *testing.T) {
	ts := newHarvestMetricsServer(t)
	body := get(t, ts.URL+"/metrics")

	wantZero := []string{
		`harvest_admissions_total{scheduler="PP-api-metrics"}`,
		`harvest_preemptions_total{scheduler="PP-api-metrics",reason="drain"}`,
		`harvest_preemptions_total{scheduler="PP-api-metrics",reason="watermark"}`,
		`harvest_migrations_total{scheduler="PP-api-metrics"}`,
		`harvest_over_watermark_nodes{scheduler="PP-api-metrics"}`,
		`harvest_resident_pods{scheduler="PP-api-metrics"}`,
	}
	for _, series := range wantZero {
		re := regexp.MustCompile(regexp.QuoteMeta(series) + ` (\S+)\n`)
		m := re.FindStringSubmatch(body)
		if m == nil {
			t.Errorf("series %s absent from /metrics before first tick", series)
			continue
		}
		if m[1] != "0" {
			t.Errorf("series %s = %s before first tick, want 0", series, m[1])
		}
	}
	// The families must also carry their metadata.
	for _, family := range []string{
		"harvest_admissions_total", "harvest_preemptions_total",
		"harvest_migrations_total", "harvest_over_watermark_nodes",
		"harvest_resident_pods",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE line for %s", family)
		}
	}
}

// TestDebugVarsBuildInfo: the apiserver-style mux reports the build identity
// on /debug/vars.
func TestDebugVarsBuildInfo(t *testing.T) {
	restore := buildinfo.Set(buildinfo.Info{
		Module: "kubeknots", Version: "v0.0.0-test", GoVersion: "go-test",
	})
	defer restore()
	ts := newHarvestMetricsServer(t)
	body := get(t, ts.URL+"/debug/vars")
	if !strings.Contains(body, `"buildinfo"`) ||
		!strings.Contains(body, `"version":"v0.0.0-test"`) ||
		!strings.Contains(body, `"go_version":"go-test"`) {
		t.Fatalf("/debug/vars missing buildinfo: %s", body)
	}
}

// TestMetricsAPISeriesPresent: the serving-layer instruments register at
// package init, so the unlabelled families are visible at zero from the
// first scrape and the labelled ones carry their metadata.
func TestMetricsAPISeriesPresent(t *testing.T) {
	ts := newHarvestMetricsServer(t)
	body := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		"api_requests_total", "api_request_seconds",
		"api_inflight", "api_advance_sim_ms_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE line for %s", family)
		}
	}
	if !strings.Contains(body, "api_inflight 0") {
		t.Error("api_inflight not exposed at zero")
	}
}

// heartbeatsIn returns knots_heartbeats_total from a /metrics body.
func heartbeatsIn(t *testing.T, body string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^knots_heartbeats_total (\S+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("knots_heartbeats_total absent from /metrics:\n%s", body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsScrapeDuringAdvance scrapes /metrics while /v1/advance drives
// the simulation: the sim path writes its run's cells and folds them when
// each advance's Orchestrator.Run returns, so the scrapes are race-free
// (run under -race) and the advances' heartbeats all reach /metrics.
func TestMetricsScrapeDuringAdvance(t *testing.T) {
	eng := sim.NewEngine(1)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	orch := k8s.NewOrchestrator(eng, cluster.New(ccfg), &scheduler.PP{}, k8s.Config{})
	srv := NewServer(orch)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", obs.PromHandler(obs.Default()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	before := heartbeatsIn(t, get(t, ts.URL+"/metrics"))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	const advances, ms = 20, 100
	for i := 0; i < advances; i++ {
		resp := post(t, ts.URL+"/v1/advance", map[string]int64{"ms": ms})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance %d: HTTP %d", i, resp.StatusCode)
		}
	}
	close(stop)
	<-done
	want := float64(advances * ms / int(orch.Cfg.Heartbeat))
	if got := heartbeatsIn(t, get(t, ts.URL+"/metrics")) - before; got < want {
		t.Fatalf("/metrics shows %v new heartbeats after the advances, want at least %v", got, want)
	}
}
