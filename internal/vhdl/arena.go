package vhdl

// The parser allocates the nodes of a parse tree from arenas: each node type
// comes out of chunks of that type, and each list (the statements of a body,
// the arguments of a call) is gathered on a stack and copied into a chunk
// once it is complete. A parse then costs a few allocations per node type
// instead of one or more per node. A tree lives and dies as a whole (the
// elaborator keeps no node, only the strings and positions it read), so a
// chunk keeps nothing alive longer than its tree would. The elaborator takes
// the compiled statement lists of a design's processes from an arena in the
// same way: the programs live and die with the design.

// arena hands out values of type T from chunks, and builds lists of T.
type arena[T any] struct {
	free  []T
	chunk int // size of the last chunk
	stack []T // the items of the lists being built, innermost list last
}

// maxChunk caps a chunk's length; chunks start at 8 and double, so a small
// source pays for a small arena.
const maxChunk = 256

// reserve makes at least n free slots.
func (a *arena[T]) reserve(n int) {
	if len(a.free) >= n {
		return
	}
	a.chunk = min(max(2*a.chunk, 8), maxChunk)
	a.free = make([]T, max(a.chunk, n))
}

// of returns a pointer to a copy of v.
func (a *arena[T]) of(v T) *T {
	a.reserve(1)
	n := &a.free[0]
	*n = v
	a.free = a.free[1:]
	return n
}

// take returns n zero values, as a slice whose capacity is its length.
func (a *arena[T]) take(n int) []T {
	a.reserve(n)
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// mark opens a list: its items are those pushed after it.
func (a *arena[T]) mark() int { return len(a.stack) }

func (a *arena[T]) push(v T) { a.stack = append(a.stack, v) }

// list closes the list opened at mark and returns its items, nil when there
// are none. The slice's capacity is its length, so an append to it copies
// instead of writing into the next list.
func (a *arena[T]) list(mark int) []T {
	items := a.stack[mark:]
	n := len(items)
	if n == 0 {
		return nil
	}
	out := a.take(n)
	copy(out, items)
	clear(items)
	a.stack = a.stack[:mark]
	return out
}

// nodes holds the parser's arenas, one per node type and one per list type.
type nodes struct {
	names      arena[Name]
	binaries   arena[Binary]
	unaries    arena[Unary]
	ints       arena[IntLit]
	times      arena[TimeLit]
	chars      arena[CharLit]
	strs       arena[StrLit]
	aggregates arena[Aggregate]

	typeRefs  arena[TypeRef]
	ports     arena[PortDecl]
	generics  arena[GenericDecl]
	signals   arena[SignalDecl]
	consts    arena[ConstDecl]
	vars      arena[VarDecl]
	processes arena[ProcessStmt]
	conds     arena[CondAssign]
	sels      arena[SelAssign]
	insts     arena[InstStmt]

	sigAssigns arena[SigAssign]
	varAssigns arena[VarAssign]
	ifs        arena[IfStmt]
	cases      arena[CaseStmt]
	waits      arena[WaitStmt]

	exprs    arena[Expr]
	stmts    arena[Stmt]
	concs    arena[ConcStmt]
	decls    arena[Decl]
	idents   arena[string]
	waves    arena[WaveElem]
	portList arena[*PortDecl]
	genList  arena[*GenericDecl]
	assocs   arena[Assoc]
	condArms arena[CondArm]
	selArms  arena[SelArm]
	caseArms arena[CaseArm]
	elifs    arena[Elif]
}
