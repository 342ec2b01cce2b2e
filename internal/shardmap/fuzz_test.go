package shardmap

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTopology: Load on arbitrary bytes never panics; a topology it
// accepts answers Owners and every shard's ShardAssignments, and
// survives Save→Load unchanged. A rewritten topology file is input from
// outside the process, and a live router or shard loads it.
func FuzzTopology(f *testing.F) {
	var seed bytes.Buffer
	if err := topo(3, 5, 2, 2).Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"version":1,"virtual_nodes":1000000000,"shards":[{"id":"a","addr":"x"}],"databases":[{"name":"d","replicas":["r"]}]}`))
	f.Add([]byte(`{"version":1,"load_factor":1e300,"replication":1,"shards":[{"id":"a","addr":"x"},{"id":"b","addr":"y"}],"databases":[{"name":"d","replicas":["r","s"]}]}`))
	f.Add([]byte(`{"version":1,"shards":[],"databases":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		owners, err := tp.Owners()
		if err != nil {
			t.Fatalf("accepted topology has no owners: %v", err)
		}
		if len(owners) != len(tp.Databases) {
			t.Fatalf("owners cover %d of %d databases", len(owners), len(tp.Databases))
		}
		for _, s := range tp.Shards {
			if _, err := tp.ShardAssignments(s.ID); err != nil {
				t.Fatalf("shard %q of an accepted topology: %v", s.ID, err)
			}
		}
		var buf bytes.Buffer
		if err := tp.Save(&buf); err != nil {
			t.Fatalf("Save of an accepted topology: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load of a saved topology: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tp, back) {
			t.Fatalf("Save→Load changed the topology:\n%+v\n%+v", tp, back)
		}
	})
}
