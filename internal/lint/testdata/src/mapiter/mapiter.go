// Package mapiter is a lint fixture: order-dependent iteration over maps.
package mapiter

import (
	"fmt"
	"sort"
)

// Collect appends map keys without sorting afterwards.
func Collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside range over map without a following sort`
	}
	return keys
}

// CollectSorted appends map keys and sorts them after the loop: fine.
func CollectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Dump prints during map iteration.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `Printf inside range over map`
	}
}

// Sum aggregates commutatively: order cannot leak, no finding.
func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Invert writes into another map: order-independent, no finding.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Scratch appends to a slice declared inside the loop body: per-iteration
// scratch space, no finding.
func Scratch(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// NestedSorted appends inside a conditional within the range and sorts in
// the enclosing block after the loop: fine.
func NestedSorted(m map[string]int) []string {
	var big []string
	for k, v := range m {
		if v > 10 {
			big = append(big, k)
		}
	}
	sort.Strings(big)
	return big
}

// CollectBoth appends to two outer slices in one assignment: two findings
// at one position.
func CollectBoth(m map[string]int) (keys []string, vals []int) {
	for k, v := range m {
		keys, vals = append(keys, k), append(vals, v) // want `append to "keys" inside range over map` `append to "vals" inside range over map`
	}
	return keys, vals
}
