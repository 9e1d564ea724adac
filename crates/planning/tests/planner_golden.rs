//! Golden bit-identity test for the path planners.
//!
//! A fixed sweep of queries runs the bounded A* (MLS-V2) and RRT* (MLS-V3)
//! over the maps their missions plan on: the default local voxel grid and
//! the default global octree, empty and with a wall across the straight
//! path at the default (0.9 m) and `fig6-constrained` (1.6 m) inflation
//! radii; octrees with 0, 6 and 18 pillars between start and goal; a query
//! starved through `set_budget_scale`; a goal inside the wall; and a grid and
//! an octree filled by `insert_cloud` from a synthetic scan of the wall, so
//! carved free space, unknown space and pruned octree leaves are planned
//! over too, optimistically and conservatively. Each case
//! records the iteration count and every waypoint coordinate through
//! `to_bits`, or the error's variant and iterations, so a planner rewrite
//! that moves a single bit of any path fails here, naming the case.
//!
//! An exact optimisation must leave the fixture untouched. If a planner
//! *deliberately* changes its output, regenerate the fixture with:
//!
//! ```sh
//! MLS_BLESS=1 cargo test -p mls-planning --test planner_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

use std::fs;
use std::path::PathBuf;

use mls_geom::Vec3;
use mls_mapping::{OccupancyQuery, OctreeConfig, OctreeMap, VoxelGridConfig, VoxelGridMap};
use mls_planning::{
    AStarConfig, AStarPlanner, PathPlanner, PlanOutcome, PlanningError, RrtStarConfig,
    RrtStarPlanner,
};

/// FNV-1a over the bit patterns of everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn vec3(&mut self, value: Vec3) -> &mut Self {
        self.u64(value.x.to_bits())
            .u64(value.y.to_bits())
            .u64(value.z.to_bits())
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The inflation radius MLS-V2 and MLS-V3 plan with by default.
const DEFAULT_INFLATION: f64 = 0.9;
/// The inflation radius of the `fig6-constrained` workload.
const CONSTRAINED_INFLATION: f64 = 1.6;

const START: Vec3 = Vec3::new(0.0, 0.0, 5.0);
const GOAL: Vec3 = Vec3::new(16.0, 0.0, 5.0);

/// Marks a wall across the straight path: x = 8 m, |y| ≤ 6 m, up to 12 m.
fn add_wall(mark: &mut dyn FnMut(Vec3)) {
    for iy in -15..=15 {
        for iz in 0..=30 {
            mark(Vec3::new(8.0, f64::from(iy) * 0.4, f64::from(iz) * 0.4));
        }
    }
}

fn grid(wall: bool) -> VoxelGridMap {
    let mut grid = VoxelGridMap::new(VoxelGridConfig::default()).unwrap();
    if wall {
        add_wall(&mut |p| grid.mark_occupied(p));
    }
    grid
}

fn octree(wall: bool) -> OctreeMap {
    let mut tree = OctreeMap::new(OctreeConfig::default()).unwrap();
    if wall {
        add_wall(&mut |p| tree.mark_occupied(p));
    }
    tree
}

/// A synthetic depth scan taken from [`START`]: returns every 0.2 m on the
/// face of the wall [`add_wall`] marks and on the ground in front of it.
fn wall_scan() -> Vec<Vec3> {
    let mut points = Vec::new();
    for iy in -30..=30 {
        for iz in 0..=60 {
            points.push(Vec3::new(8.0, f64::from(iy) * 0.2, f64::from(iz) * 0.2));
        }
    }
    for ix in -40..40 {
        for iy in -40..=40 {
            points.push(Vec3::new(f64::from(ix) * 0.2, f64::from(iy) * 0.2, 0.0));
        }
    }
    points
}

/// The default local grid after two passes of [`wall_scan`].
fn scanned_grid() -> VoxelGridMap {
    let mut grid = VoxelGridMap::new(VoxelGridConfig::default()).unwrap();
    let scan = wall_scan();
    for _ in 0..2 {
        grid.insert_cloud(START, &scan);
    }
    grid
}

/// The default octree after two passes of [`wall_scan`], enough hits for
/// the returns to read occupied; the carved space prunes into coarse leaves.
fn scanned_octree() -> OctreeMap {
    let mut tree = OctreeMap::new(OctreeConfig::default()).unwrap();
    let scan = wall_scan();
    for _ in 0..2 {
        tree.insert_cloud(START, &scan);
    }
    tree
}

/// An octree with `columns` vertical pillars between (0,0,5) and (28,0,5).
fn pillar_world(columns: usize) -> OctreeMap {
    let mut tree = OctreeMap::new(OctreeConfig {
        resolution: 0.4,
        half_extent: 64.0,
        ..OctreeConfig::default()
    })
    .unwrap();
    for i in 0..columns {
        let x = 6.0 + (i as f64 * 37.0) % 20.0;
        let y = -8.0 + (i as f64 * 53.0) % 16.0;
        for z in 0..30 {
            tree.mark_occupied(Vec3::new(x, y, z as f64 * 0.4));
            tree.mark_occupied(Vec3::new(x + 0.4, y, z as f64 * 0.4));
        }
    }
    tree
}

fn astar(inflation_radius: f64) -> AStarPlanner {
    AStarPlanner::with_config(AStarConfig {
        inflation_radius,
        ..AStarConfig::default()
    })
}

fn rrt_star(inflation_radius: f64, seed: u64) -> RrtStarPlanner {
    RrtStarPlanner::with_config(RrtStarConfig {
        inflation_radius,
        seed,
        ..RrtStarConfig::default()
    })
}

/// One planning query of the sweep, flown from [`START`].
struct Case {
    label: String,
    planner: Box<dyn PathPlanner>,
    map: Box<dyn OccupancyQuery>,
    goal: Vec3,
}

fn case(
    label: impl Into<String>,
    planner: impl PathPlanner + 'static,
    map: impl OccupancyQuery + 'static,
    goal: Vec3,
) -> Case {
    Case {
        label: label.into(),
        planner: Box::new(planner),
        map: Box::new(map),
        goal,
    }
}

/// Every query of the sweep, in fixture order.
fn cases() -> Vec<Case> {
    let mut cases = vec![
        case(
            "astar grid-open",
            astar(DEFAULT_INFLATION),
            grid(false),
            GOAL,
        ),
        case(
            "astar grid-wall-0.9",
            astar(DEFAULT_INFLATION),
            grid(true),
            GOAL,
        ),
        case(
            "astar grid-wall-1.6",
            astar(CONSTRAINED_INFLATION),
            grid(true),
            GOAL,
        ),
    ];
    for seed in [3, 11] {
        cases.push(case(
            format!("rrt-star octree-open-seed{seed}"),
            rrt_star(DEFAULT_INFLATION, seed),
            octree(false),
            GOAL,
        ));
    }
    for inflation in [DEFAULT_INFLATION, CONSTRAINED_INFLATION] {
        cases.push(case(
            format!("rrt-star octree-wall-{inflation}"),
            rrt_star(inflation, 3),
            octree(true),
            GOAL,
        ));
    }
    let far_goal = Vec3::new(28.0, 0.0, 5.0);
    for columns in [0, 6, 18] {
        cases.push(case(
            format!("astar pillars-{columns}"),
            AStarPlanner::new(),
            pillar_world(columns),
            far_goal,
        ));
        cases.push(case(
            format!("rrt-star pillars-{columns}"),
            rrt_star(DEFAULT_INFLATION, 3),
            pillar_world(columns),
            far_goal,
        ));
    }
    let mut starved = astar(DEFAULT_INFLATION);
    starved.set_budget_scale(0.02);
    cases.push(case("astar grid-wall-starved", starved, grid(true), GOAL));
    cases.push(case(
        "rrt-star octree-goal-in-wall",
        rrt_star(DEFAULT_INFLATION, 3),
        octree(true),
        Vec3::new(8.0, 0.0, 5.0),
    ));
    cases.push(case(
        "astar scanned-grid-1.6",
        astar(CONSTRAINED_INFLATION),
        scanned_grid(),
        GOAL,
    ));
    cases.push(case(
        "rrt-star scanned-octree-1.6",
        rrt_star(CONSTRAINED_INFLATION, 11),
        scanned_octree(),
        GOAL,
    ));
    cases.push(case(
        "astar scanned-grid-conservative",
        AStarPlanner::with_config(AStarConfig {
            inflation_radius: 0.3,
            optimistic_unknown: false,
            ..AStarConfig::default()
        }),
        scanned_grid(),
        Vec3::new(6.0, 2.0, 2.0),
    ));
    cases
}

/// Each case's label and result.
fn sweep() -> Vec<(String, Result<PlanOutcome, PlanningError>)> {
    cases()
        .into_iter()
        .map(|mut case| {
            let result = case.planner.plan(case.map.as_ref(), START, case.goal);
            (case.label, result)
        })
        .collect()
}

/// One `<planner> <case> <result>` line per query of the sweep.
fn golden_lines() -> Vec<String> {
    sweep()
        .into_iter()
        .map(|(label, result)| match result {
            Ok(outcome) => {
                let mut digest = Digest::new();
                digest.u64(outcome.iterations as u64);
                digest.u64(outcome.path.waypoints.len() as u64);
                for &waypoint in &outcome.path.waypoints {
                    digest.vec3(waypoint);
                }
                format!(
                    "{label} ok {} iterations {} waypoints {}",
                    outcome.iterations,
                    outcome.path.waypoints.len(),
                    digest.hex()
                )
            }
            Err(PlanningError::NoPathFound { iterations, .. }) => {
                format!("{label} no-path {iterations} iterations")
            }
            Err(PlanningError::InvalidEndpoint { endpoint }) => {
                format!("{label} invalid-endpoint {endpoint}")
            }
            Err(err) => format!("{label} error {err}"),
        })
        .collect()
}

#[test]
fn planners_match_the_committed_digests() {
    let text = golden_lines().join("\n") + "\n";
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/planner_golden.txt");
    if std::env::var("MLS_BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(fixture.parent().unwrap()).expect("create fixtures dir");
        fs::write(&fixture, &text).expect("bless fixture");
        eprintln!("blessed {}", fixture.display());
        return;
    }
    let expected = fs::read_to_string(&fixture).unwrap_or_else(|err| {
        panic!(
            "missing fixture {} ({err}); regenerate with MLS_BLESS=1",
            fixture.display()
        )
    });
    let moved: Vec<String> = text
        .lines()
        .zip(expected.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        moved.is_empty() && text == expected,
        "planner output diverged from the committed digests:\n{}\n\
         if the change is deliberate, regenerate with MLS_BLESS=1 and review the diff",
        moved.join("\n")
    );
}

#[test]
fn the_sweep_reaches_every_outcome_it_pins() {
    // The fixture only protects what the sweep exercises: a found path, an
    // exhausted budget and a rejected endpoint.
    let results = sweep();
    assert!(results.iter().any(|(_, r)| r.is_ok()));
    assert!(results
        .iter()
        .any(|(_, r)| matches!(r, Err(PlanningError::NoPathFound { .. }))));
    assert!(results
        .iter()
        .any(|(_, r)| matches!(r, Err(PlanningError::InvalidEndpoint { .. }))));
}
