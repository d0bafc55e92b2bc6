// Package reference keeps the paper's two B+-tree procedures. Nothing that
// serves a query runs them; only the experiments and tests import this
// package.
//
//   - §4.2's MaxScore queue, BuildMaxScoreQueueBTree: the MaxScore column of
//     Table 3, and the oracle core's queue builders are held to.
//   - §4.5's IBIG refinement, IBIGBTree: one side of the refinement ablation,
//     a scorer of core's serial candidate loop.
package reference

import "sort"

// DefaultOrder is the default maximum number of keys per node.
const DefaultOrder = 64

// Tree is an order-configurable B+-tree from float64 keys to postings lists
// of object identifiers. The paper uses it in two places:
//
//   - computing the MaxScore upper bound of every object at O(N·lgN) cost
//     (§4.2): one tree per dimension answers "how many objects have a value
//     ≥ v in dimension i" via CountGE;
//   - the IBIG refinement scan (§4.4–4.5): locating the boundary of the bin
//     an object's value falls into and sequentially scanning the keys inside
//     the bin, via Seek and the leaf chain.
//
// Subtree posting counts are maintained on every node, so the rank-style
// queries (CountGE/CountGT/CountLT/CountLE) run in O(log N) regardless of
// how many postings match. The tree supports duplicate keys by storing all
// ids for a key in one postings list. Deletion is intentionally omitted:
// every use builds the tree once over a static dataset.
type Tree struct {
	root  *node
	order int
	keys  int // number of distinct keys
}

type node struct {
	leaf     bool
	keys     []float64
	children []*node   // internal nodes only; len = len(keys)+1
	postings [][]int32 // leaf nodes only; parallel to keys
	next     *node     // leaf chain
	total    int       // postings in this subtree
}

// New returns an empty tree with the given order (max keys per node).
// Orders below 3 are raised to 3.
func New(order int) *Tree {
	if order < 3 {
		order = 3
	}
	return &Tree{root: &node{leaf: true}, order: order}
}

// NewDefault returns an empty tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Len returns the total number of postings (key, id) in the tree.
func (t *Tree) Len() int { return t.root.total }

// KeyCount returns the number of distinct keys.
func (t *Tree) KeyCount() int { return t.keys }

// Insert adds id under key. Duplicate keys accumulate postings.
func (t *Tree) Insert(key float64, id int32) {
	sep, right, grew := t.insert(t.root, key, id)
	if grew {
		t.root = &node{
			keys:     []float64{sep},
			children: []*node{t.root, right},
			total:    t.root.total + right.total,
		}
	}
}

// insert descends into n; on split it returns the separator key and the new
// right sibling.
func (t *Tree) insert(n *node, key float64, id int32) (float64, *node, bool) {
	if n.leaf {
		i := sort.SearchFloat64s(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.postings[i] = append(n.postings[i], id)
			n.total++
			return 0, nil, false
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.postings = append(n.postings, nil)
		copy(n.postings[i+1:], n.postings[i:])
		n.postings[i] = []int32{id}
		n.total++
		t.keys++
		if len(n.keys) > t.order {
			return t.splitLeaf(n)
		}
		return 0, nil, false
	}
	ci := t.childIndex(n, key)
	sep, right, grew := t.insert(n.children[ci], key, id)
	n.total++
	if grew {
		n.keys = append(n.keys, 0)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
		if len(n.keys) > t.order {
			return t.splitInternal(n)
		}
	}
	return 0, nil, false
}

// childIndex picks the child whose key range contains key: separator keys[i]
// is the minimum key of children[i+1].
func (t *Tree) childIndex(n *node, key float64) int {
	return sort.Search(len(n.keys), func(j int) bool { return key < n.keys[j] })
}

func (t *Tree) splitLeaf(n *node) (float64, *node, bool) {
	mid := len(n.keys) / 2
	right := &node{
		leaf:     true,
		keys:     append([]float64(nil), n.keys[mid:]...),
		postings: append([][]int32(nil), n.postings[mid:]...),
		next:     n.next,
	}
	for _, p := range right.postings {
		right.total += len(p)
	}
	n.keys = n.keys[:mid]
	n.postings = n.postings[:mid]
	n.next = right
	n.total -= right.total
	return right.keys[0], right, true
}

func (t *Tree) splitInternal(n *node) (float64, *node, bool) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]float64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	for _, c := range right.children {
		right.total += c.total
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.total -= right.total
	return sep, right, true
}

// Get returns the postings stored under key, or nil.
func (t *Tree) Get(key float64) []int32 {
	n := t.root
	for !n.leaf {
		n = n.children[t.childIndex(n, key)]
	}
	i := sort.SearchFloat64s(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.postings[i]
	}
	return nil
}

// CountGE returns the number of postings with key' >= key.
func (t *Tree) CountGE(key float64) int { return t.countFrom(key, true) }

// CountGT returns the number of postings with key' > key.
func (t *Tree) CountGT(key float64) int { return t.countFrom(key, false) }

// CountLE returns the number of postings with key' <= key.
func (t *Tree) CountLE(key float64) int { return t.Len() - t.CountGT(key) }

// CountLT returns the number of postings with key' < key.
func (t *Tree) CountLT(key float64) int { return t.Len() - t.CountGE(key) }

func (t *Tree) countFrom(key float64, inclusive bool) int {
	n := t.root
	c := 0
	for !n.leaf {
		ci := t.childIndex(n, key)
		for j := ci + 1; j < len(n.children); j++ {
			c += n.children[j].total
		}
		n = n.children[ci]
	}
	for i, k := range n.keys {
		if k > key || (inclusive && k == key) {
			c += len(n.postings[i])
		}
	}
	return c
}

// Iterator walks keys in ascending order along the leaf chain.
type Iterator struct {
	n   *node
	pos int
}

// Seek returns an iterator positioned at the first key >= key.
func (t *Tree) Seek(key float64) *Iterator {
	n := t.root
	for !n.leaf {
		n = n.children[t.childIndex(n, key)]
	}
	i := sort.SearchFloat64s(n.keys, key)
	it := &Iterator{n: n, pos: i}
	it.skipExhausted()
	return it
}

// Min returns an iterator positioned at the smallest key.
func (t *Tree) Min() *Iterator {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	it := &Iterator{n: n}
	it.skipExhausted()
	return it
}

func (it *Iterator) skipExhausted() {
	for it.n != nil && it.pos >= len(it.n.keys) {
		it.n = it.n.next
		it.pos = 0
	}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. The iterator must be Valid.
func (it *Iterator) Key() float64 { return it.n.keys[it.pos] }

// Postings returns the current postings list. The iterator must be Valid.
func (it *Iterator) Postings() []int32 { return it.n.postings[it.pos] }

// Next advances to the next key.
func (it *Iterator) Next() {
	it.pos++
	it.skipExhausted()
}

// AscendRange calls fn for every key in [lo, hi] in ascending order; fn
// returning false stops the scan early.
func (t *Tree) AscendRange(lo, hi float64, fn func(key float64, ids []int32) bool) {
	for it := t.Seek(lo); it.Valid() && it.Key() <= hi; it.Next() {
		if !fn(it.Key(), it.Postings()) {
			return
		}
	}
}

// FromPairs builds a tree with the default order from parallel key/id
// slices; a convenience for index construction.
func FromPairs(keys []float64, ids []int32) *Tree {
	if len(keys) != len(ids) {
		panic("reference: FromPairs length mismatch")
	}
	t := NewDefault()
	for i, k := range keys {
		t.Insert(k, ids[i])
	}
	return t
}

// Depth returns the height of the tree (1 for a lone leaf); for tests.
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
