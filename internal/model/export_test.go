package model

// SnapshotExcluding exposes the residual materialization to the external
// test package, which needs internal/gen and internal/core (both import
// model) to build Suite20 instances and their solver mappings.
func (r *ResidualNetwork) SnapshotExcluding(res *Reservation) *Network {
	return r.snapshotExcluding(nil, res)
}
