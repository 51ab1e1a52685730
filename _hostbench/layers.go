package main

import (
	"runtime"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// counts are the per-layer work totals of one round, summed over its jobs
// from the public cluster.Result. Message, byte and task counts do not
// depend on the seed; waits are modelled times and do.
type counts struct {
	msgs, bytes, msgsMPI, msgsGASPI int64
	nicWaitedNs, linkWaitedNs       int64
	lockUses, lockWaitedNs          int64
	tasks, spawned                  int64
	events                          int64
}

func (c *counts) add(res cluster.Result, rec obs.Recorder) {
	c.msgs += res.Fabric.Messages
	c.bytes += res.Fabric.Bytes
	c.msgsMPI += res.Fabric.ByClass[0]
	c.msgsGASPI += res.Fabric.ByClass[1]
	for _, n := range res.NIC {
		c.nicWaitedNs += int64(n.Tx.Waited + n.Rx.Waited)
	}
	for _, l := range res.Links {
		c.linkWaitedNs += int64(l.Res.Waited)
	}
	for _, s := range res.MPILock {
		c.lockUses += s.Uses
		c.lockWaitedNs += int64(s.Waited)
	}
	for _, s := range res.Tasking {
		c.tasks += s.Submitted
		c.spawned += s.Spawned
	}
	if col, ok := rec.(*obs.Collector); ok && col != nil && col.Tracer != nil {
		c.events += int64(col.Tracer.Len())
	}
}

func (c counts) metrics(m metrics) {
	m.put("fabric.msgs", float64(c.msgs), "count")
	m.put("fabric.bytes", float64(c.bytes), "B")
	m.put("fabric.msgs_mpi", float64(c.msgsMPI), "count")
	m.put("fabric.msgs_gaspi", float64(c.msgsGASPI), "count")
	m.put("fabric.nic_waited_us", float64(c.nicWaitedNs)/1e3, "us")
	m.put("fabric.link_waited_us", float64(c.linkWaitedNs)/1e3, "us")
	m.put("mpisim.lock_uses", float64(c.lockUses), "count")
	m.put("mpisim.lock_waited_us", float64(c.lockWaitedNs)/1e3, "us")
	m.put("tasking.tasks", float64(c.tasks), "count")
	m.put("tasking.spawned", float64(c.spawned), "count")
	m.put("obs.events", float64(c.events), "count")
}

// memDelta is the Go runtime's allocation and GC activity over one round.
type memDelta struct {
	allocBytes, mallocs, gcs float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func deltaOf(before, after runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		gcs:        float64(after.NumGC - before.NumGC),
	}
}
