// Command repcutd serves RepCut simulations over HTTP: a content-addressed
// compile cache (one partition+compile per unique design+options, shared
// by every client), stateful simulation sessions, and an observability
// surface.
//
// Serve:
//
//	repcutd -addr 127.0.0.1:8372
//
// Serve as one member of a static fleet (compile requests route by
// consistent hash, cache misses fetch artifacts from the owning peer, and
// SIGTERM drains every session to a peer before the listener stops):
//
//	repcutd -addr 10.0.0.1:8372 -self 10.0.0.1:8372 \
//	        -peers 10.0.0.1:8372,10.0.0.2:8372,10.0.0.3:8372
//
// Load and measurements come from the repository's one benchmark driver
// (bench/, `bash bench/run.sh`), which spawns this binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8372", "listen address")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "compile cache resident-byte budget")
		maxSess    = flag.Int("max-sessions", 1024, "live session admission limit (429 beyond)")
		maxComp    = flag.Int("max-compiles", 0, "concurrent compile admission limit (503 beyond; 0 = NumCPU)")
		idle       = flag.Duration("idle-timeout", 2*time.Minute, "reap sessions idle longer than this")
		batchLanes = flag.Int("batch-lanes", 16, fmt.Sprintf("sessions per 16-lane group, %d–16 (a program's sessions share groups once %d are live, the measured break-even); 1 disables batching, 2–%d are refused", service.MinLaneGroup, service.MinLaneGroup, service.MinLaneGroup-1))
		cgOn       = flag.Bool("codegen", false, "enable the native build-behind tier: compile-cache misses build plugin kernels asynchronously and sessions hot-swap onto them")
		cgDir      = flag.String("codegen-dir", "", "native artifact store directory (empty = per-user default under the temp dir)")
		cgBytes    = flag.Int64("codegen-bytes", 0, "native artifact store disk byte budget (0 = 1 GiB)")
		peersF     = flag.String("peers", "", "comma-separated host:port list of every fleet member (including this node); enables cluster mode")
		selfF      = flag.String("self", "", "this node's advertised host:port in the peer list (default: the -addr value)")
		fetchTO    = flag.Duration("fetch-timeout", 5*time.Second, "cluster: peer artifact fetch budget before shedding with 503")
		portFile   = flag.String("portfile", "", "write the bound host:port to this file once listening")
		logJSON    = flag.Bool("log-json", false, "emit request logs as JSON instead of text")
		quiet      = flag.Bool("quiet", false, "suppress per-request logs")
	)
	flag.Parse()
	if *batchLanes > sim.BatchWidth {
		fatal(fmt.Errorf("-batch-lanes %d: a lane group holds at most %d sessions", *batchLanes, sim.BatchWidth))
	}
	if *batchLanes > 1 && *batchLanes < service.MinLaneGroup {
		fatal(fmt.Errorf("-batch-lanes %d: a lane group only pays from %d sessions, the measured break-even (1 disables batching)", *batchLanes, service.MinLaneGroup))
	}

	logger := newLogger(*logJSON, *quiet)
	cfg := service.Config{
		CacheBytes:   *cacheBytes,
		MaxSessions:  *maxSess,
		MaxCompiles:  *maxComp,
		IdleTimeout:  *idle,
		BatchLanes:   *batchLanes,
		Codegen:      *cgOn,
		CodegenDir:   *cgDir,
		CodegenBytes: *cgBytes,
		Logger:       logger,
	}
	var err error
	if *peersF != "" {
		err = serveCluster(cfg, *addr, *selfF, *peersF, *fetchTO, *portFile, logger)
	} else {
		srv := service.New(cfg)
		err = serve("repcutd", *addr, *portFile, srv.Handler(), srv, nil, logger)
	}
	if err != nil {
		fatal(err)
	}
}

// newLogger builds the structured logger for request logs.
func newLogger(jsonFmt, quiet bool) *slog.Logger {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	if jsonFmt {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// serve runs h on addr until SIGINT/SIGTERM, then shuts down gracefully:
// run drain (if any) while the listener is still up, stop accepting, wait
// out in-flight requests, close srv's sessions.
func serve(name, addr, portFile string, h http.Handler, srv *service.Server, drain func(), logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h}

	bound := ln.Addr().String()
	fmt.Printf("%s listening on http://%s\n", name, bound)
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "reason", "signal")
	if drain != nil {
		drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

// serveCluster runs one fleet member. Its drain step migrates sessions to
// peers while the listener is still up — a migration target with a cold
// cache fetches the artifact back from this node — and only then does the
// HTTP server stop.
func serveCluster(cfg service.Config, addr, self, peers string, fetchTO time.Duration, portFile string, logger *slog.Logger) error {
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if self == "" {
		self = addr
	}
	node, err := cluster.New(cluster.Config{
		Service:      cfg,
		Self:         self,
		Peers:        peerList,
		FetchTimeout: fetchTO,
	})
	if err != nil {
		return err
	}
	drain := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		moved, err := node.DrainMigrate(ctx)
		if err != nil {
			logger.Warn("drain incomplete", "migrated", moved, "err", err)
		} else {
			logger.Info("drained", "migrated", moved)
		}
	}
	name := fmt.Sprintf("repcutd (cluster node %s, %d peers)", self, len(node.Ring().Peers()))
	return serve(name, addr, portFile, node.Handler(), node.Server(), drain, logger)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repcutd:", err)
	os.Exit(1)
}
