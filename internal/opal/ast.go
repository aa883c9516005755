package opal

// AST node types for OPAL. The parser produces these; the compiler lowers
// each one once to a Go closure.

type node interface{ pos() int }

type base struct{ at int }

func (b base) pos() int { return b.at }

// methodAST is a complete method: pattern, temporaries, statements.
type methodAST struct {
	base
	selector string   // canonical selector ("at:put:", "+", "size")
	params   []string // argument names
	temps    []string
	body     []node // statements; a ^-return is a returnNode
}

// literalNode is a literal value.
type literalNode struct {
	base
	kind literalKind
	i    int64
	f    float64
	s    string         // string/symbol/char text
	arr  []*literalNode // #( ... ) elements
}

type literalKind uint8

const (
	litInt literalKind = iota
	litFloat
	litString
	litSymbol
	litChar
	litTrue
	litFalse
	litNil
	litArray
)

// varNode references a name: temp, instance variable, global, self, super.
type varNode struct {
	base
	name string
}

// assignNode assigns to a variable or a path.
type assignNode struct {
	base
	target node // varNode or pathNode
	value  node
}

// returnNode is ^expr.
type returnNode struct {
	base
	value node
}

// sendNode is a message send.
type sendNode struct {
	base
	receiver node
	selector string
	args     []node
	super    bool // receiver was 'super'
}

// cascadeNode sends several messages to the same receiver.
type cascadeNode struct {
	base
	receiver node      // receiver of the first message
	sends    []casSend // each subsequent message
}

type casSend struct {
	selector string
	args     []node
}

// blockNode is a block literal.
type blockNode struct {
	base
	params []string
	temps  []string
	body   []node
}

// calculusNode is an embedded set-calculus expression: { {T: v} where ... }.
// The raw source is parsed at compile time; enclosing-method variables it
// references become runtime bindings ("it can include procedural parts",
// §5.4).
type calculusNode struct {
	base
	src string
}

// pathNode is an OPAL path expression: root '!' seg ('!' seg)*.
type pathNode struct {
	base
	root node // usually a varNode
	segs []pathSeg
}

type pathSeg struct {
	name    string // element name (symbol); empty when index
	isIndex bool
	index   int64
	timeExp node // expression after '@', or nil
}
