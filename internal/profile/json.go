package profile

import (
	"encoding/json"
	"fmt"
)

// JSON serialization for profiles, so that a controller implementation can
// be described declaratively — the paper's "other implementations can be
// analyzed simply by populating these two tables appropriately" as a file
// format. The enums use human-readable tokens:
//
//	{
//	  "name": "My controller",
//	  "clusterRoles": ["Brain", "Store"],
//	  "hostRole": "Switch",
//	  "processes": [
//	    {"name": "api", "role": "Brain", "restart": "auto", "cp": "one", "dp": "none"},
//	    {"name": "replica", "role": "Store", "restart": "manual", "cp": "majority", "dp": "none"},
//	    {"name": "dataplane", "role": "Switch", "restart": "auto", "cp": "none", "dp": "one", "perHost": true}
//	  ]
//	}

// jsonProcess is the wire form of a Process.
type jsonProcess struct {
	Name           string `json:"name"`
	Role           string `json:"role"`
	Restart        string `json:"restart"` // "auto" | "manual"
	CP             string `json:"cp"`      // "none" | "one" | "majority"
	DP             string `json:"dp"`
	DPGroup        string `json:"dpGroup,omitempty"`
	Supervisor     bool   `json:"supervisor,omitempty"`
	NodeManager    bool   `json:"nodeManager,omitempty"`
	PerHost        bool   `json:"perHost,omitempty"`
	FailureEffect  string `json:"failureEffect,omitempty"`
	RecoveryAction string `json:"recoveryAction,omitempty"`
}

// jsonProfile is the wire form of a Profile.
type jsonProfile struct {
	Name         string        `json:"name"`
	Description  string        `json:"description,omitempty"`
	ClusterRoles []string      `json:"clusterRoles"`
	HostRole     string        `json:"hostRole,omitempty"`
	Processes    []jsonProcess `json:"processes"`
}

func restartToken(m RestartMode) string {
	if m == ManualRestart {
		return "manual"
	}
	return "auto"
}

func restartFromToken(s string) (RestartMode, error) {
	switch s {
	case "auto", "":
		return AutoRestart, nil
	case "manual":
		return ManualRestart, nil
	default:
		return AutoRestart, fmt.Errorf("profile: unknown restart mode %q (want auto or manual)", s)
	}
}

func needToken(q Need) string {
	switch q {
	case OneOf:
		return "one"
	case Majority:
		return "majority"
	default:
		return "none"
	}
}

func needFromToken(s string) (Need, error) {
	switch s {
	case "none", "":
		return NotRequired, nil
	case "one":
		return OneOf, nil
	case "majority":
		return Majority, nil
	default:
		return NotRequired, fmt.Errorf("profile: unknown quorum requirement %q (want none, one or majority)", s)
	}
}

// toJSON renders the profile as indented JSON.
func toJSON(p *Profile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	jp := jsonProfile{
		Name:        p.Name,
		Description: p.Description,
		HostRole:    string(p.HostRole),
	}
	for _, r := range p.ClusterRoles {
		jp.ClusterRoles = append(jp.ClusterRoles, string(r))
	}
	for _, proc := range p.Processes {
		jp.Processes = append(jp.Processes, jsonProcess{
			Name:           proc.Name,
			Role:           string(proc.Role),
			Restart:        restartToken(proc.Restart),
			CP:             needToken(proc.CP),
			DP:             needToken(proc.DP),
			DPGroup:        proc.DPGroup,
			Supervisor:     proc.Supervisor,
			NodeManager:    proc.NodeManager,
			PerHost:        proc.PerHost,
			FailureEffect:  proc.FailureEffect,
			RecoveryAction: proc.RecoveryAction,
		})
	}
	return json.MarshalIndent(jp, "", "  ")
}

// FromJSON parses and validates a profile.
func FromJSON(data []byte) (*Profile, error) {
	var jp jsonProfile
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("profile: parsing JSON: %w", err)
	}
	p := &Profile{
		Name:        jp.Name,
		Description: jp.Description,
		HostRole:    Role(jp.HostRole),
	}
	for _, r := range jp.ClusterRoles {
		p.ClusterRoles = append(p.ClusterRoles, Role(r))
	}
	for _, proc := range jp.Processes {
		restart, err := restartFromToken(proc.Restart)
		if err != nil {
			return nil, fmt.Errorf("profile: process %q: %w", proc.Name, err)
		}
		cp, err := needFromToken(proc.CP)
		if err != nil {
			return nil, fmt.Errorf("profile: process %q cp: %w", proc.Name, err)
		}
		dp, err := needFromToken(proc.DP)
		if err != nil {
			return nil, fmt.Errorf("profile: process %q dp: %w", proc.Name, err)
		}
		p.Processes = append(p.Processes, Process{
			Name:           proc.Name,
			Role:           Role(proc.Role),
			Restart:        restart,
			CP:             cp,
			DP:             dp,
			DPGroup:        proc.DPGroup,
			Supervisor:     proc.Supervisor,
			NodeManager:    proc.NodeManager,
			PerHost:        proc.PerHost,
			FailureEffect:  proc.FailureEffect,
			RecoveryAction: proc.RecoveryAction,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
