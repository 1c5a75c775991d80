package fleet

import (
	"context"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

func TestFleetLifecycle(t *testing.T) {
	f, err := New(Spec{
		Names:    replicaNames(2),
		Variant:  func(string) redundancy.Variant[int, int] { return double("double") },
		Detector: redundancy.FailureDetectorConfig{Interval: 10 * time.Millisecond, Timeout: 10 * time.Millisecond, SuspectAfter: 1, DeadAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()

	// A replica joins the running fleet (once a first answer shows it
	// serving) and serves at once; a killed one stops answering and the
	// detector stops calling it alive.
	call := func(name string) {
		t.Helper()
		remote, err := redundancy.NewRemoteVariant[int, int]("via-"+name, redundancy.RemoteConfig{CallTimeout: time.Second}, f.Endpoints(name)...)
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		if got, err := remote.Execute(context.Background(), 21); err != nil || got != 42 {
			t.Fatalf("call to %s = %d, %v, want 42", name, got, err)
		}
	}
	call("r2")
	if err := f.AddReplica("r3", double("double")); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	call("r3")
	f.Kill("r1")
	deadline := time.Now().Add(2 * time.Second)
	for f.Detector.State("r1") == redundancy.ReplicaAlive && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	got := f.Replicas()
	if len(got) != 3 || got[0].Name != "r1" || got[2].Name != "r3" {
		t.Fatalf("Replicas() = %+v, want r1 r2 r3 in join order", got)
	}
	if got[0].State == redundancy.ReplicaAlive {
		t.Errorf("killed replica r1 still alive: %+v", got[0])
	}
}

func TestCheckFlagsWrongAnswers(t *testing.T) {
	if r := check(3, 6, nil, time.Millisecond); r.Err != nil || r.Wrong {
		t.Errorf("correct answer: %+v", r)
	}
	if r := check(3, 7, nil, time.Millisecond); r.Err == nil || !r.Wrong {
		t.Errorf("wrong answer accepted silently: %+v", r)
	}
	w := Workload{Requests: []Request{check(1, 2, nil, time.Millisecond), check(1, 3, nil, 3*time.Millisecond)}}
	if w.Served() != 1 || w.WrongAnswers() != 1 || w.Availability() != 0.5 || w.Percentile(99) != 3*time.Millisecond {
		t.Errorf("workload summary: served %d wrong %d availability %v p99 %v",
			w.Served(), w.WrongAnswers(), w.Availability(), w.Percentile(99))
	}
}
