package fleet

import "sort"

// ReplicaState is one replica's routing snapshot.
type ReplicaState struct {
	ID          int    `json:"id"`
	Outstanding int64  `json:"outstanding"`
	QueueDepth  int    `json:"queue_depth"`
	Draining    bool   `json:"draining"`
	Served      uint64 `json:"served"`
}

// State is a fleet snapshot for introspection endpoints (/v1/fleet).
type State struct {
	Model string `json:"model"`
	Arch  string `json:"arch"`
	// Mode is "replicated" or "pipeline"; Stages is the chips per replica
	// (1 in replicated mode).
	Mode   string `json:"mode"`
	Stages int    `json:"stages"`

	MinReplicas int            `json:"min_replicas"`
	MaxReplicas int            `json:"max_replicas"`
	Replicas    []ReplicaState `json:"replicas"`

	Requests   uint64 `json:"requests"`
	ScaleUps   uint64 `json:"scale_ups"`
	ScaleDowns uint64 `json:"scale_downs"`
}

// State snapshots the fleet's routing and scaling counters.
func (f *Fleet) State() State {
	st := State{
		Model:       f.cfg.Model,
		Arch:        f.cfg.Arch,
		Mode:        f.Mode(),
		Stages:      f.stages,
		MinReplicas: f.cfg.MinReplicas,
		MaxReplicas: f.cfg.MaxReplicas,
		Requests:    f.requests.Load(),
		ScaleUps:    f.scaleUps.Load(),
		ScaleDowns:  f.scaleDowns.Load(),
	}
	f.mu.Lock()
	for _, rep := range f.replicas {
		st.Replicas = append(st.Replicas, ReplicaState{
			ID:          rep.id,
			Outstanding: rep.outstanding.Load(),
			QueueDepth:  rep.run.Depth(),
			Draining:    rep.draining,
			Served:      rep.served.Load(),
		})
	}
	f.mu.Unlock()
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].ID < st.Replicas[j].ID })
	return st
}
