package main

// layerMetrics computes the traced run's per-layer metrics, named
// <module>.<metric>. The ones every workload defines are reported in the
// final JSON line; the workload-specific ones (dynamic, tenant, ha and
// replica reads) print as lines where they apply.
func layerMetrics(w *workload, p *phaseResult, rec *recorder) []metric {
	h := p.h
	var out []metric
	add := func(name string, v float64, unit string, n int, report bool) {
		out = append(out, metric{name, v, unit, n, report})
	}

	// client: round trip minus the front end's own handle time.
	var mWire, uWire, mHandle, uHandle []float64
	var ext, ver, cand []float64
	var affected []float64
	drains, drained, resyncs := 0, 0, 0
	for _, t := range h.tenants {
		for i, d := range t.log.matchRTT {
			mWire = append(mWire, ms(d)-t.log.matchHandle[i])
		}
		for i, d := range t.log.updateRTT {
			uWire = append(uWire, ms(d)-t.log.updateHandle[i])
		}
		mHandle = append(mHandle, t.log.matchHandle...)
		uHandle = append(uHandle, t.log.updateHandle...)
		for _, m := range t.log.matchMetrics {
			ext = append(ext, float64(m.Extensions))
			ver = append(ver, float64(m.Verifications))
			cand = append(cand, float64(m.FocusCandidates))
		}
		for _, a := range t.log.affected {
			affected = append(affected, float64(a))
		}
		drains += t.log.drains
		drained += t.log.drainedDeltas
		resyncs += t.log.resyncs
	}
	nm, nu := len(mHandle), len(uHandle)
	add("client.match.wire_ms", median(mWire), "ms", nm, true)
	add("client.update.wire_ms", median(uWire), "ms", nu, true)
	add("client.bytes_per_op", ratio(int(rec.connBytes.Load()), nm+nu), "bytes", nm+nu, true)

	// cluster and server: the front end's handle time, and the worker
	// calls seen through the wrapped transports.
	add("cluster.match.handle_ms", median(mHandle), "ms", nm, true)
	add("cluster.update.handle_ms", median(uHandle), "ms", nu, true)
	byClass := map[string][]workerCall{}
	bytes := 0
	for _, c := range rec.calls {
		byClass[callClass(c)] = append(byClass[callClass(c)], c)
		bytes += c.Bytes
	}
	byClass["fragment"] = rec.fragment
	add("cluster.calls_per_match", ratio(len(byClass["match"]), nm), "calls", len(byClass["match"]), true)
	add("cluster.calls_per_update", ratio(len(byClass["update"]), nu), "calls", len(byClass["update"]), true)
	for _, class := range []string{"match", "update", "fragment"} {
		rtt, handle, wire, busy := callTimes(byClass[class])
		n := len(byClass[class])
		add("server."+class+".rtt_ms", median(rtt), "ms", n, true)
		// Workers report handle time in whole microseconds, so a median
		// of microsecond-scale calls would sit on one quantum: the mean
		// keeps its resolution.
		add("server."+class+".handle_ms", mean(handle), "ms", n, true)
		add("server."+class+".wire_ms", median(wire), "ms", n, true)
		switch class {
		case "match":
			add("server.match.busy_ms_per_op", busy/float64(max(nm, 1)), "ms", n, true)
		case "update":
			add("server.update.busy_ms_per_op", busy/float64(max(nu, 1)), "ms", n, true)
		}
	}
	add("server.bytes_per_call", ratio(bytes, len(rec.calls)), "bytes", len(rec.calls), true)

	// match: the engine's work counts from the response metrics, and the
	// single-process engine alone.
	add("match.extensions_per_match", mean(ext), "count", len(ext), true)
	add("match.verifications_per_match", mean(ver), "count", len(ver), true)
	add("match.candidates_per_match", mean(cand), "count", len(cand), true)
	add("match.qmatch_ms", median(p.replay.qmatchMS), "ms", len(p.replay.qmatchMS), true)

	// graph, dynamic: the single-process replay of the same batches.
	add("graph.apply_us", median(p.replay.applyUS), "us", len(p.replay.applyUS), true)
	add("partition.dpar_s", p.replay.dparS, "s", 1, true)
	if w.watches != nil {
		add("dynamic.affected_us", median(p.replay.affectedUS), "us", len(p.replay.affectedUS), true)
		add("dynamic.reverify_us", median(p.replay.reverifyUS), "us", len(p.replay.reverifyUS), true)
		add("dynamic.affected_per_update", mean(affected), "count", len(affected), true)
		add("tenant.deltas_per_drain", ratio(drained, drains), "count", drains, true)
		add("tenant.resyncs", float64(resyncs), "count", drains, false)
	}
	if w.replicas > 1 {
		add("cluster.replica_read_share", p.readShare, "fraction", len(byClass["match"]), false)
		rtt, _, _, _ := callTimes(byClass["mirror"])
		add("ha.mirror.rtt_ms", median(rtt), "ms", len(rtt), false)
		add("ha.mirror.calls_per_update", ratio(len(byClass["mirror"]), nu), "calls", len(byClass["mirror"]), false)
	}
	if w.journal {
		var appendMS, appendBytes []float64
		for _, a := range rec.appends {
			appendMS = append(appendMS, ms(a.D))
			appendBytes = append(appendBytes, float64(a.Bytes))
		}
		add("ha.journal.append_ms", median(appendMS), "ms", len(appendMS), false)
		add("ha.journal.bytes_per_batch", median(appendBytes), "bytes", len(appendBytes), false)
	}
	return out
}

// callClass sorts a worker call into the layer it measures: writes on
// pool-acquired transports are replica mirrors (internal/ha), everything
// else belongs to the worker's own command.
func callClass(c workerCall) string {
	switch c.Cmd {
	case "update", "assign":
		if c.Role == "pool" {
			return "mirror"
		}
		return "update"
	}
	return c.Cmd
}

// callTimes returns per-call round trip, worker handle time and wire time
// (round trip minus handle), plus the summed handle time.
func callTimes(calls []workerCall) (rtt, handle, wire []float64, busy float64) {
	for _, c := range calls {
		r := ms(c.RTT)
		rtt = append(rtt, r)
		handle = append(handle, c.HandleMS)
		wire = append(wire, r-c.HandleMS)
		busy += c.HandleMS
	}
	return
}
