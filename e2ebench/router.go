package main

import (
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// routeTimer counts and times the routing decisions of every router it
// wraps during one run, and records one span per decision.
type routeTimer struct {
	tr *tracer

	mu    sync.Mutex
	calls int
	busy  time.Duration
}

func (rt *routeTimer) observe(name string, req int, start time.Time) {
	end := time.Now()
	rt.mu.Lock()
	rt.calls++
	rt.busy += end.Sub(start)
	rt.mu.Unlock()
	rt.tr.add(name, req, start, end)
}

// wrap returns a Router that forwards to inner and times each call.
// The wrapper keeps the optional CloudAwareRouter interface when inner
// implements it. It cannot forward serve's unexported per-run reset
// hook, so inner must be freshly built for every run.
func (rt *routeTimer) wrap(inner serve.Router) serve.Router {
	t := timedRouter{inner: inner, rt: rt}
	if ca, ok := inner.(serve.CloudAwareRouter); ok {
		return timedCloudRouter{timedRouter: t, cloud: ca}
	}
	return t
}

// wrapRouter applies wrap to r when wrap is set.
func wrapRouter(r serve.Router, wrap func(serve.Router) serve.Router) serve.Router {
	if wrap == nil {
		return r
	}
	return wrap(r)
}

type timedRouter struct {
	inner serve.Router
	rt    *routeTimer
}

func (t timedRouter) Name() string { return t.inner.Name() }

func (t timedRouter) Route(r workload.Request, replicas []serve.ReplicaView) int {
	start := time.Now()
	i := t.inner.Route(r, replicas)
	t.rt.observe("serve.route", r.ID, start)
	return i
}

type timedCloudRouter struct {
	timedRouter
	cloud serve.CloudAwareRouter
}

func (t timedCloudRouter) RouteCloud(r workload.Request, replicas []serve.ReplicaView, v serve.CloudView) bool {
	start := time.Now()
	ok := t.cloud.RouteCloud(r, replicas, v)
	t.rt.observe("serve.route_cloud", r.ID, start)
	return ok
}
