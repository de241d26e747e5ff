package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// evalError aborts evaluation with a positioned error (recovered at the
// statement-execution boundary).
type evalError struct{ err *Error }

func evalPanic(pos Pos, format string, args ...any) {
	panic(evalError{&Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)}})
}

// evalCtx provides name resolution for the evaluator. The constant
// (elaboration-time) context leaves the signal callbacks nil.
type evalCtx struct {
	consts map[string]kernel.Value // constants, generics, generate/loop vars
	types  map[string]*Type        // named types
	enums  map[string]kernel.Value // enum literal -> its EnumVal, boxed once
	// vars resolves process variables (interpreter only).
	vars map[string]kernel.Value
	// sigVal resolves a signal's current value (nil in constant contexts).
	sigVal func(name string) (kernel.Value, *Type, bool)
	// sigEvent resolves s'event (nil in constant contexts).
	sigEvent func(name string) (bool, bool)
}

// lookupPlain resolves a bare identifier.
func (c *evalCtx) lookupPlain(ident string) (kernel.Value, bool) {
	if c.vars != nil {
		if v, ok := c.vars[ident]; ok {
			return v, true
		}
	}
	if v, ok := c.consts[ident]; ok {
		return v, true
	}
	if v, ok := c.enums[ident]; ok {
		return v, true
	}
	if c.sigVal != nil {
		if v, _, ok := c.sigVal(ident); ok {
			return v, true
		}
	}
	return nil, false
}

// eval evaluates an expression. want may be nil; it provides the element
// type and width context for aggregates and string literals.
func (c *evalCtx) eval(e Expr, want *Type) kernel.Value {
	switch e := e.(type) {
	case *IntLit:
		if want != nil && want.Kind == tTime {
			return timeVal(e.Val)
		}
		return e.Val
	case *TimeLit:
		return timeVal(e.Val * timeUnits[e.Unit])
	case *CharLit:
		v, ok := stdlogic.FromRune(rune(e.Val))
		if !ok {
			evalPanic(e.Pos, "invalid std_logic character literal '%c'", e.Val)
		}
		return v
	case *StrLit:
		if want != nil && want.Kind != tVec && want.Kind != tStd {
			// A string in a report message context.
			return e.Val
		}
		v, err := stdlogic.VecFromString(e.Val)
		if err != nil {
			// Not a bit-string: treat as text.
			return e.Val
		}
		return v
	case *Aggregate:
		return c.evalAggregate(e, want)
	case *Unary:
		return c.evalUnary(e)
	case *Binary:
		return c.evalBinary(e)
	case *Name:
		return c.evalName(e, want)
	}
	evalPanic(Pos{}, "unsupported expression %T", e)
	return nil
}

func (c *evalCtx) evalAggregate(a *Aggregate, want *Type) kernel.Value {
	if want == nil || want.Kind != tVec {
		evalPanic(a.Pos, "aggregate requires a vector context")
	}
	w := want.Width()
	elemT := &Type{Kind: tStd}
	out := stdlogic.NewVec(w, stdlogic.U)
	if a.Others != nil {
		fill := c.eval(a.Others, elemT)
		fv, ok := fill.(stdlogic.Std)
		if !ok {
			evalPanic(a.Pos, "aggregate fill must be std_logic")
		}
		for i := range out {
			out[i] = fv
		}
	}
	if len(a.Elems) > w {
		evalPanic(a.Pos, "aggregate has %d elements for a %d-wide vector", len(a.Elems), w)
	}
	for i, el := range a.Elems {
		v := c.eval(el, elemT)
		sv, ok := v.(stdlogic.Std)
		if !ok {
			evalPanic(a.Pos, "aggregate element %d is not std_logic", i)
		}
		out[i] = sv
	}
	return out
}

func (c *evalCtx) evalUnary(u *Unary) kernel.Value {
	x := c.eval(u.X, nil)
	switch u.Op {
	case "not":
		switch v := x.(type) {
		case stdlogic.Std:
			return stdlogic.Not(v)
		case stdlogic.Vec:
			return stdlogic.NotVec(v)
		case bool:
			return !v
		}
	case "-":
		switch v := x.(type) {
		case int64:
			return -v
		case timeVal:
			evalPanic(u.Pos, "negative time")
		}
	case "abs":
		if v, ok := x.(int64); ok {
			if v < 0 {
				return -v
			}
			return v
		}
	}
	evalPanic(u.Pos, "operator %q not defined for %s", u.Op, valueString(x))
	return nil
}

func (c *evalCtx) evalBinary(b *Binary) kernel.Value {
	l := c.eval(b.L, nil)
	// Give the right operand the left's type as context (helps literals).
	var rWant *Type
	switch l.(type) {
	case stdlogic.Vec:
		if lv := l.(stdlogic.Vec); true {
			rWant = &Type{Kind: tVec, Lo: int64(len(lv)) - 1, Downto: true}
		}
	case timeVal:
		rWant = &Type{Kind: tTime}
	}
	r := c.eval(b.R, rWant)

	switch b.Op {
	case "and", "or", "xor", "nand", "nor", "xnor":
		return c.logic(b, l, r)
	case "=", "/=":
		eq := valuesEqual(b, l, r)
		if b.Op == "=" {
			return eq
		}
		return !eq
	case "<", "<=", ">", ">=":
		return compare(b, l, r)
	case "+", "-":
		return c.addSub(b, l, r)
	case "&":
		return concat(b, l, r)
	case "*", "/", "mod", "rem", "**":
		return arith(b, l, r)
	case "sll", "srl":
		return shift(b, l, r)
	}
	evalPanic(b.Pos, "unsupported operator %q", b.Op)
	return nil
}

// stdOps maps each logical operator to its std_logic function.
var stdOps = map[string]func(a, d stdlogic.Std) stdlogic.Std{
	"and": stdlogic.And, "or": stdlogic.Or, "xor": stdlogic.Xor,
	"nand": stdlogic.Nand, "nor": stdlogic.Nor, "xnor": stdlogic.Xnor,
}

func (c *evalCtx) logic(b *Binary, l, r kernel.Value) kernel.Value {
	op := stdOps[b.Op]
	switch lv := l.(type) {
	case stdlogic.Std:
		rv, ok := r.(stdlogic.Std)
		if !ok {
			evalPanic(b.Pos, "type mismatch in %q", b.Op)
		}
		return op(lv, rv)
	case stdlogic.Vec:
		rv, ok := r.(stdlogic.Vec)
		if !ok || len(rv) != len(lv) {
			evalPanic(b.Pos, "vector length mismatch in %q", b.Op)
		}
		out := make(stdlogic.Vec, len(lv))
		for i := range out {
			out[i] = op(lv[i], rv[i])
		}
		return out
	case bool:
		rv, ok := r.(bool)
		if !ok {
			evalPanic(b.Pos, "type mismatch in %q", b.Op)
		}
		switch b.Op {
		case "and":
			return lv && rv
		case "or":
			return lv || rv
		case "xor":
			return lv != rv
		case "nand":
			return !(lv && rv)
		case "nor":
			return !(lv || rv)
		case "xnor":
			return lv == rv
		}
	}
	evalPanic(b.Pos, "operator %q not defined for %s", b.Op, valueString(l))
	return nil
}

func valuesEqual(b *Binary, l, r kernel.Value) bool {
	switch lv := l.(type) {
	case stdlogic.Vec:
		rv, ok := r.(stdlogic.Vec)
		if !ok {
			evalPanic(b.Pos, "comparing vector with %s", valueString(r))
		}
		return lv.Equal(rv)
	case EnumVal:
		rv, ok := r.(EnumVal)
		if !ok || rv.Enum.Name != lv.Enum.Name {
			evalPanic(b.Pos, "comparing values of different enumeration types")
		}
		return lv.Ord == rv.Ord
	default:
		if !sameScalarKind(l, r) {
			evalPanic(b.Pos, "comparing %s with %s", valueString(l), valueString(r))
		}
		return l == r
	}
}

func sameScalarKind(l, r kernel.Value) bool {
	switch l.(type) {
	case stdlogic.Std:
		_, ok := r.(stdlogic.Std)
		return ok
	case bool:
		_, ok := r.(bool)
		return ok
	case int64:
		_, ok := r.(int64)
		return ok
	case timeVal:
		_, ok := r.(timeVal)
		return ok
	}
	return false
}

func compare(b *Binary, l, r kernel.Value) bool {
	cmp := 0
	switch lv := l.(type) {
	case int64:
		rv, ok := r.(int64)
		if !ok {
			evalPanic(b.Pos, "comparing integer with %s", valueString(r))
		}
		switch {
		case lv < rv:
			cmp = -1
		case lv > rv:
			cmp = 1
		}
	case timeVal:
		rv, ok := r.(timeVal)
		if !ok {
			evalPanic(b.Pos, "comparing time with %s", valueString(r))
		}
		switch {
		case lv < rv:
			cmp = -1
		case lv > rv:
			cmp = 1
		}
	case stdlogic.Vec:
		// Unsigned interpretation (numeric_std-style convenience).
		lu, ok1 := lv.Uint()
		rv, ok := r.(stdlogic.Vec)
		if !ok {
			evalPanic(b.Pos, "comparing vector with %s", valueString(r))
		}
		ru, ok2 := rv.Uint()
		if !ok1 || !ok2 {
			evalPanic(b.Pos, "ordering comparison on non-01 vector")
		}
		switch {
		case lu < ru:
			cmp = -1
		case lu > ru:
			cmp = 1
		}
	case EnumVal:
		rv, ok := r.(EnumVal)
		if !ok || rv.Enum.Name != lv.Enum.Name {
			evalPanic(b.Pos, "comparing values of different enumeration types")
		}
		switch {
		case lv.Ord < rv.Ord:
			cmp = -1
		case lv.Ord > rv.Ord:
			cmp = 1
		}
	default:
		evalPanic(b.Pos, "ordering not defined for %s", valueString(l))
	}
	switch b.Op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func (c *evalCtx) addSub(b *Binary, l, r kernel.Value) kernel.Value {
	switch lv := l.(type) {
	case int64:
		switch rv := r.(type) {
		case int64:
			if b.Op == "+" {
				return lv + rv
			}
			return lv - rv
		}
	case timeVal:
		if rv, ok := r.(timeVal); ok {
			if b.Op == "+" {
				return lv + rv
			}
			if rv > lv {
				evalPanic(b.Pos, "negative time")
			}
			return lv - rv
		}
	case stdlogic.Vec:
		var rv stdlogic.Vec
		switch rr := r.(type) {
		case stdlogic.Vec:
			rv = rr
		case int64:
			rv = stdlogic.FromInt(rr, len(lv))
		default:
			evalPanic(b.Pos, "adding vector and %s", valueString(r))
		}
		if len(rv) != len(lv) {
			evalPanic(b.Pos, "vector length mismatch in %q", b.Op)
		}
		if b.Op == "+" {
			return stdlogic.AddVec(lv, rv)
		}
		return stdlogic.SubVec(lv, rv)
	}
	evalPanic(b.Pos, "operator %q not defined for %s and %s", b.Op, valueString(l), valueString(r))
	return nil
}

func concat(b *Binary, l, r kernel.Value) kernel.Value {
	// String concatenation (report messages).
	if ls, ok := l.(string); ok {
		return ls + valueString(r)
	}
	if rs, ok := r.(string); ok {
		return valueString(l) + rs
	}
	toVec := func(v kernel.Value) stdlogic.Vec {
		switch vv := v.(type) {
		case stdlogic.Vec:
			return vv
		case stdlogic.Std:
			return stdlogic.Vec{vv}
		}
		evalPanic(b.Pos, "concatenating %s", valueString(v))
		return nil
	}
	lv, rv := toVec(l), toVec(r)
	out := make(stdlogic.Vec, 0, len(lv)+len(rv))
	return append(append(out, lv...), rv...)
}

func arith(b *Binary, l, r kernel.Value) kernel.Value {
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if lt, ok := l.(timeVal); ok && rok {
		// time * integer and time / integer.
		switch b.Op {
		case "*":
			return lt * timeVal(ri)
		case "/":
			if ri == 0 {
				evalPanic(b.Pos, "division by zero")
			}
			return lt / timeVal(ri)
		}
	}
	if rt, ok := r.(timeVal); ok && lok && b.Op == "*" {
		return timeVal(li) * rt
	}
	if !lok || !rok {
		evalPanic(b.Pos, "operator %q not defined for %s and %s", b.Op, valueString(l), valueString(r))
	}
	switch b.Op {
	case "*":
		return li * ri
	case "/":
		if ri == 0 {
			evalPanic(b.Pos, "division by zero")
		}
		return li / ri
	case "mod":
		if ri == 0 {
			evalPanic(b.Pos, "mod by zero")
		}
		m := li % ri
		if m != 0 && (m < 0) != (ri < 0) {
			m += ri
		}
		return m
	case "rem":
		if ri == 0 {
			evalPanic(b.Pos, "rem by zero")
		}
		return li % ri
	case "**":
		out := int64(1)
		for i := int64(0); i < ri; i++ {
			out *= li
		}
		return out
	}
	return nil
}

func shift(b *Binary, l, r kernel.Value) kernel.Value {
	lv, ok := l.(stdlogic.Vec)
	ri, ok2 := r.(int64)
	if !ok || !ok2 {
		evalPanic(b.Pos, "shift requires vector and integer")
	}
	n := int(ri)
	w := len(lv)
	out := stdlogic.NewVec(w, stdlogic.L0)
	for i := 0; i < w; i++ {
		var src int
		if b.Op == "sll" {
			src = i + n
		} else {
			src = i - n
		}
		if src >= 0 && src < w {
			out[i] = lv[src]
		}
	}
	return out
}

// evalName resolves names: variables, constants, enum literals, signals,
// attributes, builtin calls, and indexing.
func (c *evalCtx) evalName(n *Name, want *Type) kernel.Value {
	if n.Attr != "" {
		return c.evalAttr(n)
	}
	if n.Args != nil {
		// Builtin function call or indexed name.
		if v, ok := c.callBuiltin(n); ok {
			return v
		}
		base, ok := c.lookupPlain(n.Ident)
		if !ok {
			evalPanic(n.Pos, "unknown function or array %q", n.Ident)
		}
		if len(n.Args) != 1 {
			evalPanic(n.Pos, "multidimensional indexing is not supported")
		}
		idx, ok := c.eval(n.Args[0], nil).(int64)
		if !ok {
			evalPanic(n.Pos, "array index must be an integer")
		}
		vec, ok := base.(stdlogic.Vec)
		if !ok {
			evalPanic(n.Pos, "%q is not an array", n.Ident)
		}
		t := c.typeOfObject(n.Ident, vec)
		off, err := t.indexOffset(idx)
		if err != nil {
			evalPanic(n.Pos, "%v", err)
		}
		return vec[off]
	}
	if n.HasSlice {
		base, ok := c.lookupPlain(n.Ident)
		if !ok {
			evalPanic(n.Pos, "unknown name %q", n.Ident)
		}
		vec, ok := base.(stdlogic.Vec)
		if !ok {
			evalPanic(n.Pos, "slicing a non-array %q", n.Ident)
		}
		t := c.typeOfObject(n.Ident, vec)
		lo := c.evalInt(n.SliceLo)
		hi := c.evalInt(n.SliceHi)
		o1, err1 := t.indexOffset(lo)
		o2, err2 := t.indexOffset(hi)
		if err1 != nil || err2 != nil {
			evalPanic(n.Pos, "slice bounds out of range")
		}
		if o1 > o2 {
			o1, o2 = o2, o1
		}
		// The slice shares the immutable vector; its capacity is capped so
		// no append can write past it into the vector it came from.
		return vec[o1 : o2+1 : o2+1]
	}
	if v, ok := c.lookupPlain(n.Ident); ok {
		return v
	}
	evalPanic(n.Pos, "unknown name %q", n.Ident)
	return nil
}

// typeOfObject reconstructs the index mapping of a vector object. When the
// declared type is unknown (plain value), assume (w-1 downto 0).
func (c *evalCtx) typeOfObject(name string, vec stdlogic.Vec) *Type {
	if c.sigVal != nil {
		if _, t, ok := c.sigVal(name); ok && t != nil {
			return t
		}
	}
	if t, ok := c.types["__obj_"+name]; ok {
		return t
	}
	return &Type{Kind: tVec, Lo: int64(len(vec)) - 1, Hi: 0, Downto: true}
}

func (c *evalCtx) evalInt(e Expr) int64 {
	v, ok := c.eval(e, nil).(int64)
	if !ok {
		evalPanic(Pos{}, "expected an integer expression")
	}
	return v
}

func (c *evalCtx) evalBool(e Expr) bool {
	v := c.eval(e, &Type{Kind: tBool})
	switch b := v.(type) {
	case bool:
		return b
	case stdlogic.Std:
		// Common shortcut: "if s" is not legal VHDL but "s = '1'" folds to
		// bool; still, accept std as truthiness of '1'/'H'.
		return stdlogic.IsHigh(b)
	}
	evalPanic(Pos{}, "expected a boolean expression, got %s", valueString(v))
	return false
}

func (c *evalCtx) evalTime(e Expr) timeVal {
	v := c.eval(e, &Type{Kind: tTime})
	switch t := v.(type) {
	case timeVal:
		return t
	case int64:
		return timeVal(t)
	}
	evalPanic(Pos{}, "expected a time expression, got %s", valueString(v))
	return 0
}

func (c *evalCtx) evalAttr(n *Name) kernel.Value {
	switch n.Attr {
	case "event":
		if c.sigEvent == nil {
			evalPanic(n.Pos, "'event outside a process")
		}
		ev, ok := c.sigEvent(n.Ident)
		if !ok {
			evalPanic(n.Pos, "'event on non-signal %q", n.Ident)
		}
		return ev
	case "image":
		// type'image(expr): VHDL predefined attribute; rendered with the
		// same formatting used by report messages.
		if len(n.Args) != 1 {
			evalPanic(n.Pos, "'image takes one argument")
		}
		return valueString(c.eval(n.Args[0], nil))
	case "length", "left", "right", "high", "low":
		t := c.namedType(n)
		switch n.Attr {
		case "length":
			return int64(t.Width())
		case "left":
			return t.Lo
		case "right":
			return t.Hi
		case "high":
			if t.Downto {
				return t.Lo
			}
			return t.Hi
		case "low":
			if t.Downto {
				return t.Hi
			}
			return t.Lo
		}
	}
	evalPanic(n.Pos, "unsupported attribute '%s", n.Attr)
	return nil
}

// namedType resolves the type of a named object or type mark for
// attributes.
func (c *evalCtx) namedType(n *Name) *Type {
	if t, ok := c.types[n.Ident]; ok {
		return t
	}
	if c.sigVal != nil {
		if _, t, ok := c.sigVal(n.Ident); ok && t != nil {
			return t
		}
	}
	if t, ok := c.types["__obj_"+n.Ident]; ok {
		return t
	}
	if v, ok := c.lookupPlain(n.Ident); ok {
		if vec, isVec := v.(stdlogic.Vec); isVec {
			return &Type{Kind: tVec, Lo: int64(len(vec)) - 1, Hi: 0, Downto: true}
		}
	}
	evalPanic(n.Pos, "cannot resolve the type of %q", n.Ident)
	return nil
}

// callBuiltin evaluates the supported ieee builtins. It reports false when
// the name is not a builtin (then treated as array indexing).
func (c *evalCtx) callBuiltin(n *Name) (kernel.Value, bool) {
	arg := func(i int, want *Type) kernel.Value {
		if i >= len(n.Args) {
			evalPanic(n.Pos, "%s: missing argument %d", n.Ident, i+1)
		}
		return c.eval(n.Args[i], want)
	}
	switch n.Ident {
	case "rising_edge", "falling_edge":
		// Needs event info: the argument must be a plain signal name.
		sn, ok := n.Args[0].(*Name)
		if !ok || c.sigEvent == nil {
			evalPanic(n.Pos, "%s requires a signal argument", n.Ident)
		}
		ev, ok := c.sigEvent(sn.Ident)
		if !ok {
			evalPanic(n.Pos, "%s on non-signal %q", n.Ident, sn.Ident)
		}
		v, _, _ := c.sigVal(sn.Ident)
		s, ok := v.(stdlogic.Std)
		if !ok {
			evalPanic(n.Pos, "%s on non-std_logic signal", n.Ident)
		}
		if n.Ident == "rising_edge" {
			return ev && stdlogic.IsHigh(s), true
		}
		return ev && stdlogic.IsLow(s), true
	case "to_integer", "to_int", "conv_integer":
		v := arg(0, nil)
		vec, ok := v.(stdlogic.Vec)
		if !ok {
			evalPanic(n.Pos, "to_integer requires a vector")
		}
		u, ok := vec.Uint()
		if !ok {
			// VHDL numeric_std warns and returns 0 on metavalues.
			return int64(0), true
		}
		return int64(u), true
	case "to_unsigned", "to_stdlogicvector", "std_logic_vector", "to_slv", "conv_std_logic_vector":
		v := arg(0, nil)
		switch vv := v.(type) {
		case stdlogic.Vec:
			return v, true // identity conversion
		case int64:
			w := int64(0)
			if len(n.Args) > 1 {
				w = c.evalInt(n.Args[1])
			} else if len(n.Args) == 1 {
				evalPanic(n.Pos, "%s needs a width argument for integer values", n.Ident)
			}
			return stdlogic.FromInt(vv, int(w)), true
		}
		evalPanic(n.Pos, "%s: unsupported argument %s", n.Ident, valueString(v))
	case "unsigned", "signed":
		// numeric_std casts are identity in this value model.
		if len(n.Args) == 1 {
			if v := arg(0, nil); v != nil {
				if _, ok := v.(stdlogic.Vec); ok {
					return v, true
				}
			}
		}
		evalPanic(n.Pos, "%s cast requires a vector", n.Ident)
	case "to_x01":
		v := arg(0, nil)
		switch vv := v.(type) {
		case stdlogic.Std:
			return stdlogic.To01(vv), true
		case stdlogic.Vec:
			out := make(stdlogic.Vec, len(vv))
			for i, s := range vv {
				out[i] = stdlogic.To01(s)
			}
			return out, true
		}
	case "now":
		evalPanic(n.Pos, "the now function is not supported")
	}
	return nil, false
}

var _ = vtime.NS // keep vtime import for timeVal users
