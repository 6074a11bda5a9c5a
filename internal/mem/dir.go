package mem

type dirEntry struct {
	sharers    uint64 // bitmask of cores whose L2 may hold the line
	dirtyOwner int8   // core holding it modified, or -1
}

// directory is the L3 sharer directory: an open-addressed hash table from
// line address to dirEntry, probed linearly from a multiplicative hash of
// the line. Deletion shifts the rest of the probe chain back instead of
// leaving tombstones, so a lookup never walks further than the live
// entries force it to. A line is tracked only while some L2 holds it, so
// the table is sized up front for every L2 line on the chip and grows
// (doubling at 3/4 load) only if that bound is ever exceeded.
type directory struct {
	slots []dirSlot
	shift uint // 64 - log2(len(slots))
	n     int  // live entries
}

type dirSlot struct {
	key uint64 // line+1; 0 marks an empty slot
	dirEntry
}

// newDirectory returns a directory sized to hold lines entries below 3/4
// load.
func newDirectory(lines int) directory {
	size, lg := 16, uint(4)
	for size*3/4 < lines {
		size, lg = size*2, lg+1
	}
	return directory{slots: make([]dirSlot, size), shift: 64 - lg}
}

func (d *directory) home(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> d.shift)
}

// find returns line's slot and true, or the empty slot that ends its probe
// chain and false.
func (d *directory) find(line uint64) (int, bool) {
	key := line + 1
	mask := len(d.slots) - 1
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns line's entry and whether the directory tracks it.
func (d *directory) get(line uint64) (dirEntry, bool) {
	if i, ok := d.find(line); ok {
		return d.slots[i].dirEntry, true
	}
	return dirEntry{}, false
}

// put stores line's entry, inserting it if it is not tracked yet.
func (d *directory) put(line uint64, e dirEntry) {
	i, ok := d.find(line)
	if ok {
		d.slots[i].dirEntry = e
		return
	}
	if (d.n+1)*4 > len(d.slots)*3 {
		d.grow()
		i, _ = d.find(line)
	}
	d.slots[i] = dirSlot{key: line + 1, dirEntry: e}
	d.n++
}

// deleteAt empties slot i, shifting back each later entry of the probe
// chain whose home does not lie cyclically in (i, j].
func (d *directory) deleteAt(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].key != 0; j = (j + 1) & mask {
		h := d.home(d.slots[j].key)
		if (j-h)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
	d.n--
}

func (d *directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old))
	d.shift--
	mask := len(d.slots) - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := d.home(s.key)
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

// each calls fn for every tracked line, in table order.
func (d *directory) each(fn func(line uint64, e dirEntry)) {
	for _, s := range d.slots {
		if s.key != 0 {
			fn(s.key-1, s.dirEntry)
		}
	}
}
