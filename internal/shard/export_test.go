package shard

// WithoutBoundShare returns the options with the cross-shard shared
// pruning cap turned off: the oracle side of the router property tests.
func (o RouterOptions) WithoutBoundShare() RouterOptions {
	o.disableBoundShare = true
	return o
}
