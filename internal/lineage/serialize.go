package lineage

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Serialize writes the DAG rooted at root as a lineage log: one line per
// node in topological (inputs-first) order, the root last. The format is
//
//	<localID> <opcode> <quoted data> <comma-separated input localIDs>
//
// Local IDs are dense and deterministic, so serializing equal DAGs yields
// identical logs. The log can be shared across environments and replayed
// with Deserialize + a RECOMPUTE harness (paper §3.2, debugging).
func Serialize(root *Item) string {
	var sb strings.Builder
	ids := make(map[uint64]int)
	var emit func(it *Item)
	emit = func(it *Item) {
		if _, ok := ids[it.id]; ok {
			return
		}
		for _, in := range it.inputs {
			emit(in)
		}
		local := len(ids)
		ids[it.id] = local
		refs := make([]string, len(it.inputs))
		for i, in := range it.inputs {
			refs[i] = strconv.Itoa(ids[in.id])
		}
		fmt.Fprintf(&sb, "%d %s %s %s\n", local, it.opcode, strconv.Quote(it.data), strings.Join(refs, ","))
	}
	emit(root)
	return sb.String()
}

// Deserialize parses a lineage log back into an in-memory DAG and returns
// its root (the last line).
func Deserialize(log string) (*Item, error) {
	sc := bufio.NewScanner(strings.NewReader(log))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	items := make(map[int]*Item)
	var root *Item
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := splitLogLine(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("lineage: malformed log line %d: %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("lineage: bad id on line %d: %v", lineNo, err)
		}
		opcode := fields[1]
		dataStr, err := strconv.Unquote(fields[2])
		if err != nil {
			return nil, fmt.Errorf("lineage: bad data on line %d: %v", lineNo, err)
		}
		var inputs []*Item
		if len(fields) == 4 && fields[3] != "" {
			for _, ref := range strings.Split(fields[3], ",") {
				rid, err := strconv.Atoi(ref)
				if err != nil {
					return nil, fmt.Errorf("lineage: bad input ref on line %d: %v", lineNo, err)
				}
				in, ok := items[rid]
				if !ok {
					return nil, fmt.Errorf("lineage: forward reference %d on line %d", rid, lineNo)
				}
				inputs = append(inputs, in)
			}
		}
		if _, ok := items[id]; ok {
			return nil, fmt.Errorf("lineage: id %d bound again on line %d", id, lineNo)
		}
		it := NewItem(opcode, dataStr, inputs...)
		items[id] = it
		root = it
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("lineage: empty log")
	}
	return root, nil
}

// splitLogLine splits "id opcode <quoted data> refs" into up to 4 fields,
// respecting the quoted data field.
func splitLogLine(line string) []string {
	sp1 := strings.IndexByte(line, ' ')
	if sp1 < 0 {
		return []string{line}
	}
	sp2 := strings.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return []string{line[:sp1], line[sp1+1:]}
	}
	sp2 += sp1 + 1
	rest := line[sp2+1:]
	// rest starts with a quoted string; find its end.
	if !strings.HasPrefix(rest, "\"") {
		return []string{line[:sp1], line[sp1+1 : sp2], rest}
	}
	end := 1
	for end < len(rest) {
		if rest[end] == '\\' {
			end += 2
			continue
		}
		if rest[end] == '"' {
			break
		}
		end++
	}
	if end >= len(rest) {
		return []string{line[:sp1], line[sp1+1 : sp2], rest}
	}
	data := rest[:end+1]
	tail := strings.TrimSpace(rest[end+1:])
	return []string{line[:sp1], line[sp1+1 : sp2], data, tail}
}
