package kvcache

import (
	"errors"
	"fmt"
)

// ErrNoSpace is returned when the allocator cannot satisfy a request;
// the serving engine reacts by queueing or preempting (Section 4.2.2's
// "KV cache becomes full, causing wait times").
var ErrNoSpace = errors.New("kvcache: out of blocks")

// Allocator is a vLLM-style paged KV block allocator. Blocks hold
// BlockTokens tokens each. Every sequence's block count lives with the
// sequence itself, as PagedAttention keeps each block table with its
// sequence: callers pass that count to Ensure, CanEnsure and Release,
// and the allocator keeps only the free count. It only accounts —
// values live elsewhere.
type Allocator struct {
	BlockTokens int
	NumBlocks   int

	free int
}

// NewAllocator returns an allocator over numBlocks blocks of blockTokens
// tokens each.
func NewAllocator(blockTokens, numBlocks int) *Allocator {
	if blockTokens <= 0 || numBlocks < 0 {
		panic(fmt.Sprintf("kvcache: bad allocator dims block=%d n=%d", blockTokens, numBlocks))
	}
	return &Allocator{
		BlockTokens: blockTokens,
		NumBlocks:   numBlocks,
		free:        numBlocks,
	}
}

// BlocksFor returns the number of blocks needed to hold tokens.
func (a *Allocator) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + a.BlockTokens - 1) / a.BlockTokens
}

// FreeBlocks returns the number of unallocated blocks.
func (a *Allocator) FreeBlocks() int { return a.free }

// UsedBlocks returns the number of allocated blocks.
func (a *Allocator) UsedBlocks() int { return a.NumBlocks - a.free }

// FreeTokens returns the token capacity of the free blocks.
func (a *Allocator) FreeTokens() int { return a.free * a.BlockTokens }

// Ensure grows a sequence's allocation, *held blocks, to cover tokens
// total tokens. It is idempotent: ensuring a smaller count is a no-op.
// Returns ErrNoSpace (allocating nothing) if the growth cannot be
// satisfied.
func (a *Allocator) Ensure(held *int32, tokens int) error {
	if tokens <= int(*held)*a.BlockTokens {
		return nil // already covered: no division on the common decode step
	}
	need := a.BlocksFor(tokens) - int(*held)
	if need > a.free {
		return ErrNoSpace
	}
	a.free -= need
	*held += int32(need)
	return nil
}

// CanEnsure reports whether Ensure(&held, tokens) would succeed.
func (a *Allocator) CanEnsure(held int32, tokens int) bool {
	return tokens <= int(held)*a.BlockTokens || a.BlocksFor(tokens)-int(held) <= a.free
}

// Release frees the *held blocks of a sequence and zeroes its count.
func (a *Allocator) Release(held *int32) {
	a.free += int(*held)
	*held = 0
}

// CheckInvariant verifies conservation: held, the block counts of every
// live sequence summed, plus the free count equals the total.
func (a *Allocator) CheckInvariant(held int) error {
	if held+a.free != a.NumBlocks {
		return fmt.Errorf("kvcache: leak: held %d + free %d != total %d", held, a.free, a.NumBlocks)
	}
	return nil
}

// CapacityTokens computes how many KV tokens fit in memBytes for a model
// whose per-token-per-rank KV footprint is kvBytesPerToken. Used to size
// allocators from hardware and model specs.
func CapacityTokens(memBytes, kvBytesPerToken float64) int {
	if kvBytesPerToken <= 0 {
		panic("kvcache: non-positive kv bytes per token")
	}
	if memBytes <= 0 {
		return 0
	}
	return int(memBytes / kvBytesPerToken)
}
