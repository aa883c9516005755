package core

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/object"
	"repro/internal/oop"
	"repro/internal/store"
)

// SystemRoot is a fixed-format indexed object so that reload can find the
// registries before any symbols are known. Slots:
const (
	rootSlotGlobals = 1
	rootSlotSymbols = 2
	rootSlotAuth    = 3
	rootSlotDirs    = 4
)

// kernelTime is the transaction time of the bootstrap: kernel classes exist
// "from the beginning" so every past state can resolve them.
const kernelTime = oop.Time(0)

type classSpec struct {
	name   string
	super  string // "" for Object
	ivars  []string
	format object.Format
	target *oop.OOP // where in Kernel to record the class OOP
}

func (db *DB) classSpecs() []classSpec {
	k := &db.kernel
	return []classSpec{
		{"Object", "", nil, object.FormatNamed, &k.Object},
		{"Class", "Object", []string{"name", "superclass", "instVarNames", "format", "methods", "comment"}, object.FormatNamed, &k.Class},
		{"UndefinedObject", "Object", nil, object.FormatNamed, &k.UndefinedObject},
		{"Boolean", "Object", nil, object.FormatNamed, &k.Boolean},
		{"True", "Boolean", nil, object.FormatNamed, &k.TrueClass},
		{"False", "Boolean", nil, object.FormatNamed, &k.FalseClass},
		{"Magnitude", "Object", nil, object.FormatNamed, &k.Magnitude},
		{"Character", "Magnitude", nil, object.FormatNamed, &k.Character},
		{"Number", "Magnitude", nil, object.FormatNamed, &k.Number},
		{"SmallInteger", "Number", nil, object.FormatNamed, &k.SmallInteger},
		{"Float", "Number", nil, object.FormatBytes, &k.Float},
		{"Collection", "Object", nil, object.FormatNamed, &k.Collection},
		{"String", "Collection", nil, object.FormatBytes, &k.String},
		{"Symbol", "String", nil, object.FormatBytes, &k.Symbol},
		{"Array", "Collection", nil, object.FormatIndexed, &k.Array},
		{"OrderedCollection", "Collection", nil, object.FormatIndexed, &k.OrderedCollection},
		{"Set", "Collection", nil, object.FormatNamed, &k.Set},
		{"Bag", "Collection", nil, object.FormatNamed, &k.Bag},
		{"Dictionary", "Collection", nil, object.FormatNamed, &k.Dictionary},
		{"Association", "Object", []string{"key", "value"}, object.FormatNamed, &k.Association},
		{"Block", "Object", nil, object.FormatNamed, &k.Block},
		{"CompiledMethod", "Object", nil, object.FormatNamed, &k.CompiledMethod},
		{"SystemDictionary", "Dictionary", nil, object.FormatNamed, &k.SystemDictionary},
		{"View", "Object", nil, object.FormatNamed, &k.View},
	}
}

func (db *DB) internWellKnown() {
	db.mu.Lock()
	defer db.mu.Unlock()
	wk := &db.wk
	wk.name = db.symbolLocked("name")
	wk.superclass = db.symbolLocked("superclass")
	wk.instVarNames = db.symbolLocked("instVarNames")
	wk.format = db.symbolLocked("format")
	wk.methods = db.symbolLocked("methods")
	wk.classComment = db.symbolLocked("comment")
	wk.key = db.symbolLocked("key")
	wk.value = db.symbolLocked("value")
	wk.aliasCounter = db.symbolLocked("__alias")
	wk.globals = db.symbolLocked("__globals")
	wk.symbols = db.symbolLocked("__symbols")
	wk.directories = db.symbolLocked("__directories")
	wk.authState = db.symbolLocked("__auth")
}

// bootstrap lays down a fresh database image: kernel classes, the globals
// dictionary, the World root, registries, and the SystemUser.
func (db *DB) bootstrap(systemPassword string) error {
	db.auth = auth.New(systemPassword)
	var batch []*object.Object
	addObj := func(o, class oop.OOP, seg object.SegmentID, f object.Format) *object.Object {
		ob := object.New(o, class, seg, f)
		batch = append(batch, ob)
		return ob
	}
	newObj := func(class oop.OOP, seg object.SegmentID, f object.Format) *object.Object {
		return addObj(oop.FromSerial(db.allocSerial()), class, seg, f)
	}

	// Identity before state: allocate every fixed OOP up front — the
	// system root, the symbol registry, then the kernel classes in spec
	// order — so each object can be created with its final class and
	// superclass references resolve. An object's Class is part of its
	// identity and is never reassigned (the ooppure invariant); the serial
	// order here is what reload and every past state depend on.
	sysRootOOP := oop.FromSerial(db.allocSerial())
	symRegOOP := oop.FromSerial(db.allocSerial())
	db.sysRoot, db.symReg = sysRootOOP, symRegOOP
	specs := db.classSpecs()
	classOOPs := make(map[string]oop.OOP, len(specs))
	for _, sp := range specs {
		o := oop.FromSerial(db.allocSerial())
		classOOPs[sp.name] = o
		*sp.target = o
	}

	sysRoot := addObj(sysRootOOP, db.kernel.Object, auth.SystemSegment, object.FormatIndexed)
	symReg := addObj(symRegOOP, db.kernel.Array, auth.SystemSegment, object.FormatIndexed)
	// Classes are instances of Class (a deliberate collapse of the ST80
	// metaclass tower; see DESIGN.md).
	classObjs := make(map[string]*object.Object, len(specs))
	for _, sp := range specs {
		classObjs[sp.name] = addObj(classOOPs[sp.name], db.kernel.Class, auth.SystemSegment, object.FormatNamed)
	}

	db.internWellKnown()

	for _, sp := range specs {
		ob := classObjs[sp.name]
		must(ob.Store(db.wk.name, kernelTime, db.SymbolFor(sp.name)))
		superOOP := oop.Nil
		if sp.super != "" {
			superOOP = classOOPs[sp.super]
		}
		must(ob.Store(db.wk.superclass, kernelTime, superOOP))
		ivarArr := newObj(db.kernel.Array, auth.SystemSegment, object.FormatIndexed)
		for i, iv := range sp.ivars {
			must(ivarArr.Store(oop.MustInt(int64(i+1)), kernelTime, db.SymbolFor(iv)))
		}
		must(ob.Store(db.wk.instVarNames, kernelTime, ivarArr.OOP))
		must(ob.Store(db.wk.format, kernelTime, oop.MustInt(int64(sp.format))))
		methods := newObj(db.kernel.Dictionary, auth.SystemSegment, object.FormatNamed)
		must(ob.Store(db.wk.methods, kernelTime, methods.OOP))
	}

	// Globals and World live in a world-writable published segment: any
	// user can anchor data at World (the paper's path examples start
	// there, §5.3.2) and bind new class definitions as globals.
	pubSeg, err := db.auth.CreateSegment(auth.SystemUser, auth.Write)
	if err != nil {
		return err
	}
	db.pubSeg = pubSeg
	globals := newObj(db.kernel.SystemDictionary, pubSeg, object.FormatNamed)
	db.globals = globals.OOP
	for _, sp := range specs {
		must(globals.Store(db.SymbolFor(sp.name), kernelTime, classOOPs[sp.name]))
	}
	world := newObj(db.kernel.Dictionary, pubSeg, object.FormatNamed)
	must(globals.Store(db.SymbolFor("World"), kernelTime, world.OOP))

	// Registries for auth state and directory definitions.
	authObj := newObj(db.kernel.String, auth.SystemSegment, object.FormatBytes)
	must(authObj.SetBytes(kernelTime, gobEncode(db.auth.Export())))
	dirObj := newObj(db.kernel.String, auth.SystemSegment, object.FormatBytes)
	must(dirObj.SetBytes(kernelTime, gobEncode([]dirDefGob{})))

	must(sysRoot.Store(oop.MustInt(rootSlotGlobals), kernelTime, globals.OOP))
	must(sysRoot.Store(oop.MustInt(rootSlotSymbols), kernelTime, symReg.OOP))
	must(sysRoot.Store(oop.MustInt(rootSlotAuth), kernelTime, authObj.OOP))
	must(sysRoot.Store(oop.MustInt(rootSlotDirs), kernelTime, dirObj.OOP))

	// Fold the interned symbols into the batch and write everything as the
	// bootstrap commit.
	db.mu.Lock()
	// takePendingSymbolsLocked needs the registry in cache to clone it;
	// seed the cache with the empty registry, then replace with the filled
	// clone it returns.
	db.publish(symReg)
	symObjs := db.takePendingSymbolsLocked()
	db.mu.Unlock()
	// The returned slice ends with the updated registry clone; drop our
	// stale empty registry from the batch in favour of it.
	for i, ob := range batch {
		if ob.OOP == symReg.OOP {
			batch = append(batch[:i], batch[i+1:]...)
			break
		}
	}
	batch = append(batch, symObjs...)

	if err := db.st.Apply(store.Commit{
		Objects:    batch,
		Root:       sysRoot.OOP,
		NextSerial: db.serialHighWater(),
		Time:       kernelTime,
	}); err != nil {
		return err
	}
	db.mu.Lock()
	for _, ob := range batch {
		db.publish(ob)
	}
	db.mu.Unlock()
	return nil
}

// reload rebuilds the in-memory state from an existing database.
func (db *DB) reload() error {
	meta := db.st.Meta()
	db.sysRoot = meta.Root
	sysRoot, err := db.loadCommitted(db.sysRoot)
	if err != nil {
		return err
	}
	slot := func(i int64) (oop.OOP, error) {
		v, ok := sysRoot.Fetch(oop.MustInt(i))
		if !ok || !v.IsHeap() {
			return oop.Invalid, fmt.Errorf("core: system root slot %d missing", i)
		}
		return v, nil
	}
	if db.symReg, err = slot(rootSlotSymbols); err != nil {
		return err
	}
	if db.globals, err = slot(rootSlotGlobals); err != nil {
		return err
	}
	authOOP, err := slot(rootSlotAuth)
	if err != nil {
		return err
	}
	dirOOP, err := slot(rootSlotDirs)
	if err != nil {
		return err
	}

	// Symbols.
	reg, err := db.loadCommitted(db.symReg)
	if err != nil {
		return err
	}
	db.mu.Lock()
	for _, el := range reg.Elements() {
		symOOP, ok := el.Current()
		if !ok {
			continue
		}
		symObj, err := db.st.Load(symOOP)
		if err != nil {
			db.mu.Unlock()
			return fmt.Errorf("core: symbol %v unloadable: %w", symOOP, err)
		}
		name := string(symObj.Bytes())
		db.symByOOP.Store(symOOP, name)
		db.symByName.Store(name, symOOP)
		db.publish(symObj)
	}
	db.mu.Unlock()
	db.internWellKnown()

	// Kernel classes by name from globals. The globals object lives in the
	// published (world-writable) segment; remember it for shared creation.
	globals, err := db.loadCommitted(db.globals)
	if err != nil {
		return err
	}
	db.pubSeg = globals.Seg
	for _, sp := range db.classSpecs() {
		c, ok := globals.Fetch(db.SymbolFor(sp.name))
		if !ok {
			return fmt.Errorf("core: kernel class %s missing from globals", sp.name)
		}
		*sp.target = c
	}

	// Authorization.
	authObj, err := db.loadCommitted(authOOP)
	if err != nil {
		return err
	}
	var st auth.State
	if err := gobDecode(authObj.Bytes(), &st); err != nil {
		return fmt.Errorf("core: auth state corrupt: %w", err)
	}
	db.auth = auth.Restore(st)

	// Directories: definitions, then replay history to rebuild indexes.
	dirObj, err := db.loadCommitted(dirOOP)
	if err != nil {
		return err
	}
	var defs []dirDefGob
	if err := gobDecode(dirObj.Bytes(), &defs); err != nil {
		return fmt.Errorf("core: directory definitions corrupt: %w", err)
	}
	for _, def := range defs {
		path := make([]oop.OOP, len(def.Path))
		for i, s := range def.Path {
			path[i] = oop.FromSerial(s)
		}
		m, err := db.rebuildDirectory(oop.FromSerial(def.Set), path)
		if err != nil {
			return fmt.Errorf("core: rebuild directory on %v: %w", oop.FromSerial(def.Set), err)
		}
		db.mu.Lock()
		db.dirs = append(db.dirs, m)
		db.mu.Unlock()
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
