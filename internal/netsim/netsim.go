// Package netsim provides the alpha-beta (latency-bandwidth) network cost
// model used by the distributed application engines for point-to-point
// messages and the collective operations the paper singles out as the
// drivers of interference propagation (allreduce, allgather, barrier;
// Section 3.2).
//
// Costs follow the standard LogP-style closed forms for tree and ring
// algorithms: a message of s bytes between two nodes costs
// alpha + s/beta; collectives over p participants compose that term
// logarithmically (trees) or linearly in segment count (rings).
package netsim

import (
	"errors"
	"math"
)

// Network describes a non-blocking switch fabric.
type Network struct {
	LatencyUs float64 // alpha: one-way message latency, microseconds
	BWGbps    float64 // beta: per-link bandwidth, gigabits per second
}

// TenGbE returns the paper's 10 Gigabit Ethernet switch with a typical
// kernel-bypass-free latency.
func TenGbE() Network { return Network{LatencyUs: 30, BWGbps: 10} }

// Validate reports whether the network parameters are usable.
func (n Network) Validate() error {
	if n.LatencyUs < 0 {
		return errors.New("netsim: negative latency")
	}
	if n.BWGbps <= 0 {
		return errors.New("netsim: non-positive bandwidth")
	}
	return nil
}

// xferSec returns the serialization time of bytes at the link rate, in
// seconds.
func (n Network) xferSec(bytes float64) float64 {
	return bytes * 8 / (n.BWGbps * 1e9)
}

// alphaSec returns the per-message latency in seconds.
func (n Network) alphaSec() float64 { return n.LatencyUs * 1e-6 }

// PointToPoint returns the cost in seconds of a single message of the
// given size between two nodes.
func (n Network) PointToPoint(bytes float64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return n.alphaSec() + n.xferSec(bytes)
}

// Barrier returns the cost in seconds of a barrier over p participants
// (dissemination algorithm: ceil(log2 p) rounds of small messages).
func (n Network) Barrier(p int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return rounds * n.PointToPoint(64)
}

// Allreduce returns the cost in seconds of an allreduce of bytes data over
// p participants using the ring algorithm (2(p-1) steps, each moving
// bytes/p), which is bandwidth-optimal and the common choice for the
// message sizes HPC codes use.
func (n Network) Allreduce(p int, bytes float64) float64 {
	if p <= 1 || bytes <= 0 {
		return 0
	}
	steps := float64(2 * (p - 1))
	segment := bytes / float64(p)
	return steps * (n.alphaSec() + n.xferSec(segment))
}

// Allgather returns the cost in seconds of an allgather in which every
// participant contributes bytes of data (ring algorithm, p-1 steps).
func (n Network) Allgather(p int, bytes float64) float64 {
	if p <= 1 || bytes <= 0 {
		return 0
	}
	steps := float64(p - 1)
	return steps * (n.alphaSec() + n.xferSec(bytes))
}

// Shuffle returns the cost in seconds of an all-to-all exchange where each
// of p participants sends totalBytes/p to every other participant, bounded
// by the per-node link (each node serializes (p-1)/p of its data). This is
// the MapReduce/Spark shuffle between stages.
func (n Network) Shuffle(p int, bytesPerNode float64) float64 {
	if p <= 1 || bytesPerNode <= 0 {
		return 0
	}
	outbound := bytesPerNode * float64(p-1) / float64(p)
	msgs := float64(p - 1)
	return msgs*n.alphaSec() + n.xferSec(outbound)
}
