package opal

import (
	"testing"
)

func TestPrintStringForms(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"Object printString", "'Object'"},
		{"SmallInteger printString", "'SmallInteger'"},
		{"2.5 printString", "'2.5'"},
		{"2.0 printString", "'2.0'"}, // integral floats keep the point
		{"(3 -> 'x') printString", "'3->''x'''"},
		{"#() printString", "'an Array( )'"},
		{"(Set new) printString", "'a Set( )'"},
		{"(Dictionary new) printString", "'a Dictionary( )'"},
		{"nil printString", "'nil'"},
		{"$z printString", "'$z'"},
		{"$é printString", "'$é'"},
		{"#sym printString", "'#sym'"},
		{"[:x | x] printString", "'aBlock(1 args)'"},
		{"Transcript printString", "'a TranscriptStream'"},
	})
}

func TestSystemErrors(t *testing.T) {
	in := newInterp(t)
	for _, src := range []string{
		"System timeDial: 'soon'", // non-integer
		"System timeDial: 999",    // future
		"System query: 42",        // non-string
		"System explain: 42",      // non-string
		"System createUser: 1 password: 2",
		"System newShared: 3", // not a class
		"System grantTo: 3 privilege: 4",
	} {
		if _, err := in.Execute(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestClassProtocolEdges(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"Object subclass: 'Widget'. Widget name", "#Widget"},
		{"Widget selectors size", "0"},
		{"Widget comment: 'a widget'. Widget!comment", "'a widget'"},
		{"(Array new: 0) size", "0"},
	})
	// Redefinition keeps identity.
	if _, err := in.Execute(`Object subclass: 'Widget' instVarNames: #('a')`); err != nil {
		t.Fatal(err)
	}
	evalCases(t, in, [][2]string{
		{"Widget instVarNames size", "1"},
	})
	// Redefining a non-class global fails.
	if _, err := in.Execute("World at: #NotAClass put: 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("Object subclass: 'NotAClass'"); err == nil {
		t.Error("subclassing over a non-class global accepted")
	}
	// new: with a negative size fails.
	if _, err := in.Execute("Array new: -1"); err == nil {
		t.Error("negative new: accepted")
	}
	// compile: with a bad pattern fails and does not register.
	if _, err := in.Execute("Widget compile: '3 + 4'"); err == nil {
		t.Error("bad method source accepted")
	}
}

func TestDictionaryAssociationFallback(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		// Object keys round-trip through associations; removeKey: works.
		{`| d k1 k2 |
			d := Dictionary new.
			k1 := Object new. k2 := Object new.
			d at: k1 put: 'one'. d at: k2 put: 'two'.
			d removeKey: k1.
			(d includesKey: k1) printString , '/' , (d at: k2)`, "'false/two'"},
		// Re-putting an object key updates in place.
		{`| d k |
			d := Dictionary new. k := Object new.
			d at: k put: 1. d at: k put: 2.
			(d size) printString , '/' , (d at: k) printString`, "'1/2'"},
		// keys/values see both representations.
		{`| d |
			d := Dictionary new.
			d at: #sym put: 1. d at: Object new put: 2.
			(d keys size) printString , '/' , (d values size) printString`, "'2/2'"},
	})
	if _, err := in.Execute("Dictionary new removeKey: #ghost"); err == nil {
		t.Error("removeKey: of missing key accepted")
	}
}

func TestBagSemantics(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| b | b := Bag new. b add: 'x'; add: 'x'; add: 'y'. b occurrencesOf: 'x'", "2"},
		{"| b | b := Bag new. b add: 1; add: 1. b remove: 1. b size", "1"},
	})
}

func TestStringEdgeCases(t *testing.T) {
	in := newInterp(t)
	evalCases(t, in, [][2]string{
		{"| s | s := 'hello' copy. s at: 1 put: $H. s", "'Hello'"},
		{"'abc' asLowercase", "'abc'"},
		{"'' size", "0"},
		{"('a' , 'b') , 'c'", "'abc'"},
		// Concatenation with a non-string prints the argument.
		{"'n=' , 42", "'n=42'"},
		{"$a < $b", "true"},
		{"$a asInteger", "97"},
		{"97 asCharacter", "$a"},
	})
}

func TestMutatingCommittedStringReKeysCleanly(t *testing.T) {
	// String at:put: on a committed string is a versioned byte update.
	in := newInterp(t)
	if _, err := in.Execute("World at: #s put: 'abc'. System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Execute("World!s at: 1 put: $X. System commitTransaction"); err != nil {
		t.Fatal(err)
	}
	out, _ := in.ExecuteToString("World!s")
	if out != "'Xbc'" {
		t.Errorf("mutated string = %s", out)
	}
	// The old version is still visible in the past.
	out, _ = in.ExecuteToString("System timeDial: 1. World!s")
	if out != "'abc'" {
		t.Errorf("dialed string = %s", out)
	}
}
