package dssearch

import (
	"asrs/internal/agg"
	"asrs/internal/attr"
)

// CertProbe summarizes the limb certificate (agg.Limbs) a (dataset,
// composite) pair earns: the composite's channels and the limbs they sum
// in, which EXPLAIN reports. A search certifies the reduction it runs on,
// whose contributions are the dataset's, in the same order.
type CertProbe struct {
	// Channels is the composite's internal channel count.
	Channels int
	// Limbs is the number of exact limbs they sum in.
	Limbs int
}

// ProbeCertificate certifies the dataset's per-object contributions for
// composite f, in dataset order, as the tables do (agg.Limbs.Certify).
func ProbeCertificate(ds *attr.Dataset, f *agg.Composite) (CertProbe, error) {
	var contribs []agg.Contrib
	for i := range ds.Objects {
		contribs = f.AppendContribs(&ds.Objects[i], contribs)
	}
	var l agg.Limbs
	err := l.Certify(f.Channels(), contribs)
	return CertProbe{Channels: f.Channels(), Limbs: l.Eff()}, err
}
