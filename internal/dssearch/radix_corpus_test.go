package dssearch_test

import (
	"testing"

	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
)

// TestRadixOrderOnCorpora holds the radix sort of the master order to the
// comparison sort over compareAnchors on the corpora the zoo and the
// paper's figures run: Singapore 50k, Tweet 20k and 100k, POISyn 5k and
// 100k (-short keeps the small ones).
func TestRadixOrderOnCorpora(t *testing.T) {
	for _, c := range []struct {
		name  string
		large bool
		ds    func() *attr.Dataset
	}{
		{"singapore-50k", false, func() *attr.Dataset { return dataset.SingaporeScaled(50000, 42) }},
		{"tweet-20k", false, func() *attr.Dataset { return dataset.Tweet(20000, 42) }},
		{"tweet-100k", true, func() *attr.Dataset { return dataset.Tweet(100000, 42) }},
		{"poisyn-5k", false, func() *attr.Dataset { return dataset.POISyn(5000, 42) }},
		{"poisyn-100k", true, func() *attr.Dataset { return dataset.POISyn(100000, 42) }},
	} {
		if c.large && testing.Short() {
			continue
		}
		dssearch.CheckAnchorOrder(t, c.name, c.ds().Objects)
	}
}
