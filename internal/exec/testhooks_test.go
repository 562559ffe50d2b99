package exec

import "rqp/internal/obs"

// Test-only accessors for state the engine never reads back.

// Budget returns the broker's current total budget.
func (m *MemBroker) Budget() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget
}

// InUse reports the broker's granted rows.
func (m *MemBroker) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// Done reports whether the cursor has seen the whole table (or stopped).
func (c *SharedCursor) Done() bool { return c.done }

// recorded is the statement record ctx's counters fill.
func recorded(ctx *Context) obs.QueryRecord {
	var rec obs.QueryRecord
	ctx.Record(&rec)
	return rec
}

// brokerRecord is the record of a statement whose only counters are m's.
func brokerRecord(m *MemBroker) obs.QueryRecord {
	ctx := NewContext()
	ctx.Mem = m
	return recorded(ctx)
}
