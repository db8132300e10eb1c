package graph

import "fmt"

// Builder provides a fluent chain-style constructor for common sequential
// network fragments; the model zoo (internal/models) uses it to keep network
// definitions close to the papers' tables. All methods return the builder so
// calls chain; Last holds the ID of the most recently added node.
type Builder struct {
	G    *Graph
	Last int
	seq  map[string]int
	// err latches the first shape-inference failure hit while chaining;
	// Finish reports it instead of panicking mid-chain.
	err error
	// inferred counts the leading nodes of G that infer has validated and
	// given shapes.
	inferred int
}

// NewBuilder starts a builder over a fresh graph with a single input node.
func NewBuilder(name string, inputShape ...int) *Builder {
	g := New(name)
	id := g.AddInput("input", inputShape...)
	return &Builder{G: g, Last: id, seq: map[string]int{}}
}

func (b *Builder) autoName(prefix string) string {
	b.seq[prefix]++
	return prefix + "_" + itoa(b.seq[prefix])
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Conv appends a convolution taking the previous node's output.
func (b *Builder) Conv(outC, k, stride, pad int) *Builder {
	inC := b.currentChannels()
	if b.err != nil {
		return b
	}
	b.Last = b.G.AddNode(b.autoName("conv"), OpConv, []int{b.Last},
		Attr{KernelH: k, KernelW: k, Stride: stride, Padding: pad},
		[]int{outC, inC, k, k})
	return b
}

// currentChannels infers the channel count of the last node. A failure
// latches into b.err (reported by Finish) and yields a placeholder so the
// chain stays panic-free.
func (b *Builder) currentChannels() int {
	if err := b.infer(); err != nil {
		b.fail(err)
		return 1
	}
	s := b.G.Nodes[b.Last].OutShape
	if len(s) == 3 {
		return s[0]
	}
	return s[len(s)-1]
}

// infer validates and infers the nodes appended since it last succeeded, in
// InferShapes' order (every node's structure, then the shapes), so building
// a model is linear in its nodes: a builder only appends, and the nodes
// before those keep the shapes they were given.
func (b *Builder) infer() error {
	g := b.G
	for i := b.inferred; i < len(g.Nodes); i++ {
		if err := g.validateNode(i); err != nil {
			return err
		}
	}
	for ; b.inferred < len(g.Nodes); b.inferred++ {
		if err := g.inferValid(g.Nodes[b.inferred]); err != nil {
			return err
		}
	}
	return nil
}

// fail latches the first chaining error for Finish to report.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = fmt.Errorf("graph: builder produced invalid prefix: %w", err)
	}
}

// CurrentShape returns the inferred output shape of the last node, or nil if
// the chain so far is invalid (the error is latched for Finish).
func (b *Builder) CurrentShape() []int {
	if err := b.infer(); err != nil {
		b.fail(err)
		return nil
	}
	return cloneShape(b.G.Nodes[b.Last].OutShape)
}

// ReLU appends a ReLU.
func (b *Builder) ReLU() *Builder {
	b.Last = b.G.AddNode(b.autoName("relu"), OpReLU, []int{b.Last}, Attr{}, nil)
	return b
}

// GELU appends a GELU.
func (b *Builder) GELU() *Builder {
	b.Last = b.G.AddNode(b.autoName("gelu"), OpGELU, []int{b.Last}, Attr{}, nil)
	return b
}

// MaxPool appends a max pool.
func (b *Builder) MaxPool(k, stride int) *Builder {
	b.Last = b.G.AddNode(b.autoName("maxpool"), OpMaxPool, []int{b.Last},
		Attr{KernelH: k, KernelW: k, Stride: stride}, nil)
	return b
}

// GlobalAvgPool appends a global average pool.
func (b *Builder) GlobalAvgPool() *Builder {
	b.Last = b.G.AddNode(b.autoName("gap"), OpGlobalAvgPool, []int{b.Last}, Attr{}, nil)
	return b
}

// Flatten appends a flatten.
func (b *Builder) Flatten() *Builder {
	b.Last = b.G.AddNode(b.autoName("flatten"), OpFlatten, []int{b.Last}, Attr{}, nil)
	return b
}

// Dense appends a fully connected layer with out features.
func (b *Builder) Dense(out int) *Builder {
	shape := b.CurrentShape()
	if b.err != nil || len(shape) == 0 {
		return b
	}
	in := shape[len(shape)-1]
	b.Last = b.G.AddNode(b.autoName("fc"), OpDense, []int{b.Last}, Attr{}, []int{in, out})
	return b
}

// Softmax appends a softmax over the last dimension.
func (b *Builder) Softmax() *Builder {
	b.Last = b.G.AddNode(b.autoName("softmax"), OpSoftmax, []int{b.Last}, Attr{}, nil)
	return b
}

// LayerNorm appends a layer normalization.
func (b *Builder) LayerNorm() *Builder {
	b.Last = b.G.AddNode(b.autoName("ln"), OpLayerNorm, []int{b.Last}, Attr{Eps: 1e-5}, nil)
	return b
}

// Sigmoid appends a host-only logistic activation.
func (b *Builder) Sigmoid() *Builder {
	b.Last = b.G.AddNode(b.autoName("sigmoid"), OpSigmoid, []int{b.Last}, Attr{}, nil)
	return b
}

// Tanh appends a host-only hyperbolic-tangent activation.
func (b *Builder) Tanh() *Builder {
	b.Last = b.G.AddNode(b.autoName("tanh"), OpTanh, []int{b.Last}, Attr{}, nil)
	return b
}

// MulFrom appends a host-only elementwise product joining the last node with
// `other` (gating connections).
func (b *Builder) MulFrom(other int) *Builder {
	b.Last = b.G.AddNode(b.autoName("mul"), OpMul, []int{b.Last, other}, Attr{}, nil)
	return b
}

// AddFrom appends an elementwise Add joining the last node with `other`
// (residual connections).
func (b *Builder) AddFrom(other int) *Builder {
	b.Last = b.G.AddNode(b.autoName("add"), OpAdd, []int{b.Last, other}, Attr{}, nil)
	return b
}

// Transpose appends a 2-D transpose.
func (b *Builder) Transpose() *Builder {
	b.Last = b.G.AddNode(b.autoName("transpose"), OpTranspose, []int{b.Last}, Attr{}, nil)
	return b
}

// MatMulWith appends a dynamic MatMul of the last node with `other`.
func (b *Builder) MatMulWith(other int) *Builder {
	b.Last = b.G.AddNode(b.autoName("matmul"), OpMatMul, []int{b.Last, other}, Attr{}, nil)
	return b
}

// Finish validates, infers shapes and returns the graph. An error latched
// mid-chain (an invalid prefix) takes precedence, so the failure is reported
// at the step that introduced it.
func (b *Builder) Finish() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.G.InferShapes(); err != nil {
		return nil, err
	}
	return b.G, nil
}

// MustFinish is Finish but panics on error; the model zoo uses it because its
// definitions are static and covered by tests.
func (b *Builder) MustFinish() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}
