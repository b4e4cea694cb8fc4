// Command knotsd demonstrates the Knots node-monitor daemon: it runs a
// simulated GPU node executing the Rodinia suite, samples the five NVML
// metrics every heartbeat into the node-local time-series store, and serves
// them over HTTP the way the paper's head-node aggregator queries worker
// nodes:
//
//	GET /metrics         Prometheus text exposition (registry + live gauges)
//	GET /window?ms=5000  the trailing window of every metric (JSON)
//	GET /debug/vars      expvar JSON
//	GET /debug/pprof/    runtime profiles
//
// The simulation advances in real time scaled by -speed. SIGINT/SIGTERM
// shut the server down gracefully, draining in-flight requests.
//
// With -state-dir the daemon checkpoints its telemetry state every
// -snapshot-every of wall time and on shutdown: the simulated clock, the
// placement sequence, and the full node-local time-series rings survive a
// restart (the in-flight workload itself restarts — knotsd is wall-driven,
// so its event stream is not replayable the way the apiserver's is, and
// the rings are the durable observable).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"kubeknots/internal/buildinfo"
	"kubeknots/internal/cluster"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

var (
	addr      = flag.String("addr", ":8089", "listen address")
	heartbeat = flag.Duration("heartbeat", 10*time.Millisecond, "sampling period (simulated)")
	speed     = flag.Float64("speed", 10, "simulated seconds per wall second")
	drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	stateDir  = flag.String("state-dir", "", "directory for telemetry snapshots (\"\" = no persistence)")
	snapEvery = flag.Duration("snapshot-every", 30*time.Second, "wall time between snapshots (with -state-dir)")
)

// Live node gauges mirroring the NVML metrics the monitor samples; they sit
// beside the knots_* counters in the same registry so one /metrics scrape
// carries both the event counters and the current device state.
var (
	gSimTime = obs.Default().Gauge("knotsd_sim_time_ms",
		"Current simulated time on the node (ms).")
	gSMUtil = obs.Default().GaugeVec("knotsd_gpu_sm_util_pct",
		"Latest sampled SM utilization per device (percent).", "gpu")
	gMemUsed = obs.Default().GaugeVec("knotsd_gpu_mem_used_mb",
		"Latest sampled device memory in use (MB).", "gpu")
	gPower = obs.Default().GaugeVec("knotsd_gpu_power_w",
		"Latest sampled board power draw (watts).", "gpu")
	gContainers = obs.Default().GaugeVec("knotsd_gpu_containers",
		"Containers currently resident on the device.", "gpu")
)

type daemon struct {
	mu  sync.Mutex
	cl  *cluster.Cluster
	mon *knots.Monitor
	now sim.Time
	seq int
}

func (d *daemon) step(dt sim.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.cl.GPUs()[0]
	hb := sim.Time(heartbeat.Milliseconds())
	if hb <= 0 {
		hb = 10 * sim.Millisecond
	}
	for t := sim.Time(0); t < dt; t += hb {
		// Keep the node busy: cycle the Rodinia suite forever.
		if len(g.Containers()) == 0 {
			names := workloads.RodiniaNames()
			p := workloads.RodiniaProfile(names[d.seq%len(names)])
			d.seq++
			c := &cluster.Container{ID: fmt.Sprintf("%s-%d", p.Name, d.seq), Class: p.Class, Inst: p.NewInstance(nil)}
			if err := g.Place(d.now, c, p.RequestMemMB); err != nil {
				log.Printf("place: %v", err)
			}
		}
		d.cl.Tick(d.now, hb)
		d.mon.Sample(d.now)
		d.now += hb
	}
	gSimTime.Set(float64(d.now))
	for _, g := range d.cl.GPUs() {
		id := g.ID()
		gSMUtil.With(id).Set(g.Obs.SMPct)
		gMemUsed.With(id).Set(g.Obs.MemUsedMB)
		gPower.With(id).Set(g.Obs.PowerW)
		gContainers.With(id).Set(float64(g.Obs.Containers))
	}
}

func (d *daemon) window(w http.ResponseWriter, r *http.Request) {
	ms, err := strconv.Atoi(r.URL.Query().Get("ms"))
	if err != nil || ms <= 0 {
		ms = 5000
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.cl.GPUs()[0]
	out := make(map[string][]float64, len(knots.Metrics))
	for _, m := range knots.Metrics {
		out[m] = d.mon.Series(g, m, d.now, sim.Time(ms))
	}
	writeJSON(w, out)
}

// knotsdBoot is the daemon's construction recipe; a state dir written by a
// different knotsd shape (or by the apiserver) is refused on load.
func knotsdBoot() persist.Bootstrap {
	return persist.Bootstrap{Kind: "knotsd", Nodes: 1}
}

// captureState freezes the daemon's durable view: clock, placement
// sequence, and every node-local ring.
func (d *daemon) captureState() *persist.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &persist.State{ClockMS: int64(d.now), DaemonSeq: uint64(d.seq)}
	db := d.mon.NodeDB(0)
	for _, name := range db.SeriesNames() {
		st.Series = append(st.Series, persist.SeriesState{
			Node:   0,
			Name:   name,
			Points: db.Window(name, 0, sim.Time(1<<62)),
		})
	}
	return st
}

// restoreState replays a snapshot into the freshly-built daemon: the rings
// are re-appended point by point (the tsdb is append-only, so this is the
// exact durable content), and the clock and sequence resume where they
// stopped.
func (d *daemon) restoreState(st *persist.State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = sim.Time(st.ClockMS)
	d.seq = int(st.DaemonSeq)
	db := d.mon.NodeDB(0)
	for _, s := range st.Series {
		for _, p := range s.Points {
			db.Append(s.Name, p.At, p.Value)
		}
	}
}

// saveSnapshot writes the daemon's current state to the state dir.
func (d *daemon) saveSnapshot(store *persist.Store) error {
	_, err := store.WriteSnapshot(&persist.Snapshot{Boot: knotsdBoot(), State: d.captureState()})
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// debugMux mounts expvar and pprof on mux under /debug/. Registering the
// pprof handlers explicitly keeps the daemon off http.DefaultServeMux.
func debugMux(mux *http.ServeMux) {
	buildinfo.Publish()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	flag.Parse()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cl := cluster.New(cfg)
	d := &daemon{cl: cl, mon: knots.NewMonitor(cl, 1<<18)}

	var store *persist.Store
	if *stateDir != "" {
		var err error
		if store, err = persist.OpenStore(*stateDir); err != nil {
			log.Fatal(err)
		}
		snap, err := store.LoadSnapshot()
		if err != nil {
			log.Fatalf("knotsd: load snapshot: %v", err)
		}
		if snap != nil {
			if !snap.Boot.Equal(knotsdBoot()) {
				log.Fatalf("knotsd: state dir %s was written by a different daemon shape", *stateDir)
			}
			d.restoreState(snap.State)
			log.Printf("knotsd: restored %d series from %s (clock at %v)",
				len(snap.State.Series), *stateDir, d.now)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// tickDone lets shutdown join this goroutine before writing the final
	// snapshot — otherwise a periodic saveSnapshot could still be racing
	// writeSnapshotFile against the same temp path.
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		var lastSnap time.Time
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-ticker.C:
				d.step(sim.Time(100 * *speed))
				if store != nil && now.Sub(lastSnap) >= *snapEvery {
					if err := d.saveSnapshot(store); err != nil {
						log.Printf("knotsd: snapshot: %v", err)
					}
					lastSnap = now
				}
			}
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.PromHandler(obs.Default()))
	mux.HandleFunc("/window", d.window)
	debugMux(mux)

	// Slowloris hardening: bound header/body reads and idle keep-alives so a
	// trickling client cannot pin connections open.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("knotsd: simulated P100 node on %s (x%.0f time)", *addr, *speed)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("knotsd: shutting down (drain %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("knotsd: shutdown: %v", err)
		}
		<-tickDone
		if store != nil {
			if err := d.saveSnapshot(store); err != nil {
				log.Fatalf("knotsd: final snapshot: %v", err)
			}
		}
	}
}
