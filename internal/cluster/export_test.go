package cluster

// RangeSorts is how many scans had their ranges sorted by scanTasks.
func (c *Cluster) RangeSorts() int64 { return c.sorts.Load() }
