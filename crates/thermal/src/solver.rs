//! Steady-state compact thermal solver (HotSpot methodology \[47\]).
//!
//! The die stack is discretized into a 3D grid of thermal cells joined by
//! lateral (within-layer) and vertical (between-layer) conduction
//! resistances; the top layer couples to ambient through the heat-sink
//! resistance. Steady-state temperatures solve the linear system
//! `sum_j (T_j - T_i)/R_ij + P_i = 0`, whose conductance matrix is
//! symmetric positive definite. We solve it with preconditioned conjugate
//! gradients. The preconditioner is an exact tridiagonal (Thomas) solve
//! down each vertical column of cells: the layers are far thinner than a
//! cell is wide, so vertical coupling is the stiff direction, and solving
//! it exactly leaves CG only the weak lateral coupling to resolve
//! (about 30 iterations on the EHP chiplet stack).

use ena_model::units::Celsius;

/// Material/geometry description of one layer in the stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerSpec {
    /// Layer name (for reporting).
    pub name: &'static str,
    /// Thickness in millimeters.
    pub thickness_mm: f64,
    /// Thermal conductivity in W/(m K).
    pub conductivity: f64,
}

impl LayerSpec {
    /// Bulk silicon.
    pub fn silicon(name: &'static str, thickness_mm: f64) -> Self {
        Self {
            name,
            thickness_mm,
            conductivity: 120.0,
        }
    }

    /// Thermal interface material.
    pub fn tim(name: &'static str, thickness_mm: f64) -> Self {
        Self {
            name,
            thickness_mm,
            conductivity: 5.0,
        }
    }
}

/// A 3D thermal grid over a uniform `nx x ny` footprint.
#[derive(Clone, Debug)]
pub struct ThermalGrid {
    layers: Vec<LayerSpec>,
    nx: usize,
    ny: usize,
    /// Footprint edge lengths in millimeters.
    width_mm: f64,
    height_mm: f64,
    /// Power injected per cell, `power[layer * nx * ny + y * nx + x]`, in
    /// watts.
    power: Vec<f64>,
    /// Total sink-to-ambient resistance in K/W (spread over top cells).
    pub sink_resistance: f64,
    /// Ambient temperature.
    pub ambient: Celsius,
}

/// Error from a thermal solve.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum TemperatureError {
    /// The iteration hit the cap before reaching the tolerance.
    DidNotConverge {
        /// Final maximum per-cell update, in degrees.
        residual: f64,
    },
}

impl core::fmt::Display for TemperatureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TemperatureError::DidNotConverge { residual } => {
                write!(
                    f,
                    "thermal solve did not converge (residual {residual:.2e} degC)"
                )
            }
        }
    }
}

impl std::error::Error for TemperatureError {}

/// Solved steady-state temperatures.
#[derive(Clone, Debug)]
pub struct Temperatures {
    nx: usize,
    /// Cells per layer.
    cells: usize,
    /// `t[layer * cells + y * nx + x]` in degrees Celsius.
    t: Vec<f64>,
    /// Conjugate-gradient iterations used.
    pub iterations: u32,
    /// Final maximum per-cell update, in degrees.
    pub residual: f64,
}

impl Temperatures {
    /// Temperature of one cell.
    pub fn at(&self, layer: usize, x: usize, y: usize) -> Celsius {
        Celsius::new(self.layer_map(layer)[y * self.nx + x])
    }

    /// Peak temperature within one layer.
    pub fn layer_peak(&self, layer: usize) -> Celsius {
        Celsius::new(
            self.layer_map(layer)
                .iter()
                .copied()
                .fold(f64::MIN, f64::max),
        )
    }

    /// Mean temperature within one layer.
    pub fn layer_mean(&self, layer: usize) -> Celsius {
        Celsius::new(self.layer_map(layer).iter().sum::<f64>() / self.cells as f64)
    }

    /// The full cell map of one layer, row-major.
    pub fn layer_map(&self, layer: usize) -> &[f64] {
        &self.t[layer * self.cells..(layer + 1) * self.cells]
    }
}

/// Conductances of the RC network, in W/K.
struct Conductances {
    /// Lateral, x direction, per layer.
    gx: Vec<f64>,
    /// Lateral, y direction, per layer.
    gy: Vec<f64>,
    /// Vertical, between layer `l` and `l + 1`.
    gz: Vec<f64>,
    /// From each top-layer cell to ambient.
    sink: f64,
}

/// The conductance matrix in flat per-cell form, with its diagonal and
/// the column preconditioner's Thomas pivots computed once per solve.
struct Network {
    nx: usize,
    ny: usize,
    g: Conductances,
    /// Sum of the conductances leaving each cell.
    diag: Vec<f64>,
    /// Reciprocal Thomas pivots of each cell's vertical column.
    inv_pivot: Vec<f64>,
}

impl Network {
    fn new(grid: &ThermalGrid) -> Self {
        let (nx, ny) = (grid.nx, grid.ny);
        let cells = nx * ny;
        let g = grid.conductances();
        let nl = g.gx.len();
        let mut diag = vec![0.0; nl * cells];
        for (l, layer) in diag.chunks_exact_mut(cells).enumerate() {
            let below = if l > 0 { g.gz[l - 1] } else { 0.0 };
            let above = g.gz.get(l).copied().unwrap_or(g.sink);
            for y in 0..ny {
                for x in 0..nx {
                    let lateral_x = usize::from(x > 0) + usize::from(x + 1 < nx);
                    let lateral_y = usize::from(y > 0) + usize::from(y + 1 < ny);
                    layer[y * nx + x] =
                        lateral_x as f64 * g.gx[l] + lateral_y as f64 * g.gy[l] + below + above;
                }
            }
        }
        // Thomas elimination down each column: the pivot of layer `l` is
        // its diagonal less the coupling eliminated from layer `l - 1`.
        let mut inv_pivot: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
        for l in 1..nl {
            let gz = g.gz[l - 1];
            for i in 0..cells {
                let k = l * cells + i;
                inv_pivot[k] = 1.0 / (diag[k] - gz * gz * inv_pivot[k - cells]);
            }
        }
        Self {
            nx,
            ny,
            g,
            diag,
            inv_pivot,
        }
    }

    fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// `q = A p`, the net heat flow out of each cell for rises `p`.
    fn apply(&self, p: &[f64], q: &mut [f64]) {
        let (nx, ny, cells) = (self.nx, self.ny, self.cells());
        let nl = self.g.gx.len();
        for l in 0..nl {
            let (gx, gy) = (self.g.gx[l], self.g.gy[l]);
            let below = if l > 0 { self.g.gz[l - 1] } else { 0.0 };
            let above = self.g.gz.get(l).copied().unwrap_or(0.0);
            for y in 0..ny {
                for x in 0..nx {
                    let k = l * cells + y * nx + x;
                    let mut flow = self.diag[k] * p[k];
                    if x > 0 {
                        flow -= gx * p[k - 1];
                    }
                    if x + 1 < nx {
                        flow -= gx * p[k + 1];
                    }
                    if y > 0 {
                        flow -= gy * p[k - nx];
                    }
                    if y + 1 < ny {
                        flow -= gy * p[k + nx];
                    }
                    if l > 0 {
                        flow -= below * p[k - cells];
                    }
                    if l + 1 < nl {
                        flow -= above * p[k + cells];
                    }
                    q[k] = flow;
                }
            }
        }
    }

    /// `z = M^-1 r`: solves each vertical column's tridiagonal block
    /// exactly, lateral coupling dropped.
    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        let cells = self.cells();
        let n = z.len();
        // Forward sweep: eliminate the coupling to the layer below.
        z[..cells].copy_from_slice(&r[..cells]);
        for (l, &gz) in self.g.gz.iter().enumerate() {
            let k0 = (l + 1) * cells;
            for k in k0..k0 + cells {
                z[k] = r[k] + gz * self.inv_pivot[k - cells] * z[k - cells];
            }
        }
        // Back substitution from the top layer down.
        for (zk, &w) in z[n - cells..].iter_mut().zip(&self.inv_pivot[n - cells..]) {
            *zk *= w;
        }
        for (l, &gz) in self.g.gz.iter().enumerate().rev() {
            let k0 = l * cells;
            for k in k0..k0 + cells {
                z[k] = (z[k] + gz * z[k + cells]) * self.inv_pivot[k];
            }
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl ThermalGrid {
    /// Creates a grid with the given stack (bottom layer first; the last
    /// layer faces the heat sink) over a `width_mm x height_mm` footprint.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or the grid dimensions are zero.
    pub fn new(
        layers: Vec<LayerSpec>,
        nx: usize,
        ny: usize,
        width_mm: f64,
        height_mm: f64,
    ) -> Self {
        assert!(!layers.is_empty(), "stack needs at least one layer");
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        let power = vec![0.0; layers.len() * nx * ny];
        Self {
            layers,
            nx,
            ny,
            width_mm,
            height_mm,
            power,
            sink_resistance: 0.25,
            ambient: Celsius::new(50.0),
        }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Adds `watts` uniformly over a rectangular region of `layer`, given
    /// in fractional footprint coordinates (`0.0..1.0`).
    pub fn add_power_rect(&mut self, layer: usize, x0: f64, y0: f64, x1: f64, y1: f64, watts: f64) {
        let cx0 = ((x0 * self.nx as f64) as usize).min(self.nx - 1);
        let cx1 = ((x1 * self.nx as f64).ceil() as usize).clamp(cx0 + 1, self.nx);
        let cy0 = ((y0 * self.ny as f64) as usize).min(self.ny - 1);
        let cy1 = ((y1 * self.ny as f64).ceil() as usize).clamp(cy0 + 1, self.ny);
        let cells = ((cx1 - cx0) * (cy1 - cy0)) as f64;
        let base = layer * self.nx * self.ny;
        for y in cy0..cy1 {
            for x in cx0..cx1 {
                self.power[base + y * self.nx + x] += watts / cells;
            }
        }
    }

    /// Total injected power in watts.
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum()
    }

    /// Lateral, vertical and sink conductances of the grid's RC network.
    fn conductances(&self) -> Conductances {
        let dx = self.width_mm / self.nx as f64 * 1e-3; // meters
        let dy = self.height_mm / self.ny as f64 * 1e-3;
        // Lateral within a layer: k * (t * dy) / dx (x direction).
        let (gx, gy) = self
            .layers
            .iter()
            .map(|spec| {
                let t = spec.thickness_mm * 1e-3;
                (
                    spec.conductivity * t * dy / dx,
                    spec.conductivity * t * dx / dy,
                )
            })
            .unzip();
        // Vertical between layer l and l+1 (series of half-thicknesses).
        let area = dx * dy;
        let gz = self
            .layers
            .iter()
            .zip(self.layers.iter().skip(1))
            .map(|(lo, hi)| {
                let r = (lo.thickness_mm * 1e-3 / 2.0) / (lo.conductivity * area)
                    + (hi.thickness_mm * 1e-3 / 2.0) / (hi.conductivity * area);
                1.0 / r
            })
            .collect();
        Conductances {
            gx,
            gy,
            gz,
            sink: 1.0 / (self.sink_resistance * (self.nx * self.ny) as f64),
        }
    }

    /// Solves for steady-state temperatures, failing if the iteration did
    /// not reach `tolerance` within `max_iterations`.
    ///
    /// # Errors
    ///
    /// Returns [`TemperatureError::DidNotConverge`] when the residual stays
    /// above the tolerance.
    pub fn solve_checked(
        &self,
        tolerance: f64,
        max_iterations: u32,
    ) -> Result<Temperatures, TemperatureError> {
        let t = self.solve(tolerance, max_iterations);
        if t.residual > tolerance {
            Err(TemperatureError::DidNotConverge {
                residual: t.residual,
            })
        } else {
            Ok(t)
        }
    }

    /// Solves for steady-state temperatures.
    ///
    /// Iterates preconditioned conjugate gradients from ambient until the
    /// largest per-cell temperature update falls below `tolerance` degrees
    /// or `max_iterations` is reached.
    pub fn solve(&self, tolerance: f64, max_iterations: u32) -> Temperatures {
        let net = Network::new(self);
        let n = self.power.len();
        // Unknowns are rises over ambient, so the right-hand side is the
        // injected power itself.
        let mut rise = vec![0.0; n];
        let mut r = self.power.clone();
        let mut z = vec![0.0; n];
        net.precondition(&r, &mut z);
        let mut p = z.clone();
        let mut q = vec![0.0; n];
        let mut rz = dot(&r, &z);
        let mut iterations = 0;
        let mut residual = f64::MAX;

        for iter in 0..max_iterations {
            if rz == 0.0 {
                // Exactly solved (e.g. no power at all): nothing to update.
                residual = 0.0;
                break;
            }
            net.apply(&p, &mut q);
            let alpha = rz / dot(&p, &q);
            let mut max_delta = 0.0f64;
            for k in 0..n {
                let delta = alpha * p[k];
                rise[k] += delta;
                r[k] -= alpha * q[k];
                max_delta = max_delta.max(delta.abs());
            }
            iterations = iter + 1;
            residual = max_delta;
            if max_delta < tolerance {
                break;
            }
            net.precondition(&r, &mut z);
            let rz_next = dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            for (pk, &zk) in p.iter_mut().zip(&z) {
                *pk = zk + beta * *pk;
            }
        }

        let ambient = self.ambient.value();
        Temperatures {
            nx: self.nx,
            cells: self.nx * self.ny,
            t: rise.into_iter().map(|u| ambient + u).collect(),
            iterations,
            residual,
        }
    }
}

#[cfg(test)]
impl ThermalGrid {
    /// Reference solver: Gauss-Seidel with successive over-relaxation,
    /// written straight from the cell stencil. Slow, but independent of
    /// [`Network`]'s assembly, so tests can check CG against it.
    pub(crate) fn solve_sor(&self, tolerance: f64, max_iterations: u32) -> Temperatures {
        let (nx, ny) = (self.nx, self.ny);
        let cells = nx * ny;
        let nl = self.layers.len();
        let g = self.conductances();
        let ambient = self.ambient.value();
        let mut t = vec![ambient; nl * cells];
        let omega = 1.5;
        let mut iterations = 0;
        let mut residual = f64::MAX;
        for iter in 0..max_iterations {
            let mut max_delta = 0.0f64;
            for l in 0..nl {
                for y in 0..ny {
                    for x in 0..nx {
                        let k = l * cells + y * nx + x;
                        let mut num = self.power[k];
                        let mut den = 0.0;
                        let mut couple = |g: f64, j: usize| {
                            num += g * t[j];
                            den += g;
                        };
                        if x > 0 {
                            couple(g.gx[l], k - 1);
                        }
                        if x + 1 < nx {
                            couple(g.gx[l], k + 1);
                        }
                        if y > 0 {
                            couple(g.gy[l], k - nx);
                        }
                        if y + 1 < ny {
                            couple(g.gy[l], k + nx);
                        }
                        if l > 0 {
                            couple(g.gz[l - 1], k - cells);
                        }
                        if l + 1 < nl {
                            couple(g.gz[l], k + cells);
                        } else {
                            num += g.sink * ambient;
                            den += g.sink;
                        }
                        let updated = t[k] + omega * (num / den - t[k]);
                        max_delta = max_delta.max((updated - t[k]).abs());
                        t[k] = updated;
                    }
                }
            }
            iterations = iter + 1;
            residual = max_delta;
            if max_delta < tolerance {
                break;
            }
        }
        Temperatures {
            nx,
            cells,
            t,
            iterations,
            residual,
        }
    }

    /// Net heat left in each cell at the solved temperatures, in watts:
    /// injected power less conduction out. Zero at steady state.
    pub(crate) fn heat_imbalance(&self, t: &Temperatures) -> Vec<f64> {
        let ambient = self.ambient.value();
        let rise: Vec<f64> = t.t.iter().map(|v| v - ambient).collect();
        let mut out = vec![0.0; rise.len()];
        Network::new(self).apply(&rise, &mut out);
        self.power.iter().zip(out).map(|(p, o)| p - o).collect()
    }

    /// Heat flowing from the top layer into ambient, in watts.
    pub(crate) fn sink_outflow(&self, t: &Temperatures) -> f64 {
        let g_sink = 1.0 / (self.sink_resistance * (self.nx * self.ny) as f64);
        let ambient = self.ambient.value();
        t.layer_map(self.layers.len() - 1)
            .iter()
            .map(|v| g_sink * (v - ambient))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer_grid() -> ThermalGrid {
        ThermalGrid::new(
            vec![
                LayerSpec::silicon("die", 0.2),
                LayerSpec::silicon("spreader", 1.0),
            ],
            8,
            8,
            10.0,
            10.0,
        )
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let g = two_layer_grid();
        let t = g.solve(1e-6, 10_000);
        for l in 0..2 {
            assert!((t.layer_peak(l).value() - 50.0).abs() < 1e-3);
        }
    }

    #[test]
    fn steady_state_rise_matches_sink_resistance() {
        // All heat must flow through the sink: mean top-layer rise over
        // ambient ~ P x R_sink.
        let mut g = two_layer_grid();
        g.sink_resistance = 0.5;
        g.add_power_rect(0, 0.0, 0.0, 1.0, 1.0, 20.0);
        let t = g.solve(1e-7, 50_000);
        let rise = t.layer_mean(1).value() - 50.0;
        assert!((rise - 10.0).abs() < 0.5, "rise = {rise}");
    }

    #[test]
    fn hotspots_form_over_power_sources() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.0, 0.0, 0.25, 0.25, 10.0);
        let t = g.solve(1e-6, 50_000);
        // The heated corner is hotter than the far corner.
        assert!(t.at(0, 0, 0).value() > t.at(0, 7, 7).value() + 1.0);
        // And the peak sits in the heated layer, not above.
        assert!(t.layer_peak(0).value() >= t.layer_peak(1).value());
    }

    #[test]
    fn more_power_means_monotonically_higher_peak() {
        let mut last = 0.0;
        for p in [5.0, 10.0, 20.0] {
            let mut g = two_layer_grid();
            g.add_power_rect(0, 0.2, 0.2, 0.8, 0.8, p);
            let peak = g.solve(1e-6, 50_000).layer_peak(0).value();
            assert!(peak > last);
            last = peak;
        }
    }

    #[test]
    fn energy_is_conserved_through_the_sink() {
        // Total heat flow into ambient equals injected power.
        let mut g = two_layer_grid();
        g.sink_resistance = 0.25;
        g.add_power_rect(0, 0.0, 0.0, 1.0, 1.0, 16.0);
        let t = g.solve(1e-8, 100_000);
        let cells = 64.0;
        let g_sink = 1.0 / (0.25 * cells);
        let outflow: f64 = (0..8)
            .flat_map(|y| (0..8).map(move |x| (x, y)))
            .map(|(x, y)| g_sink * (t.at(1, x, y).value() - 50.0))
            .sum();
        assert!((outflow - 16.0).abs() < 0.05, "outflow = {outflow}");
    }

    #[test]
    fn tim_layers_insulate() {
        // Same stack but with a TIM between die and spreader: die runs
        // hotter for the same power.
        let mut plain = two_layer_grid();
        plain.add_power_rect(0, 0.3, 0.3, 0.7, 0.7, 15.0);
        let mut with_tim = ThermalGrid::new(
            vec![
                LayerSpec::silicon("die", 0.2),
                LayerSpec::tim("tim", 0.1),
                LayerSpec::silicon("spreader", 1.0),
            ],
            8,
            8,
            10.0,
            10.0,
        );
        with_tim.add_power_rect(0, 0.3, 0.3, 0.7, 0.7, 15.0);
        let a = plain.solve(1e-6, 50_000).layer_peak(0).value();
        let b = with_tim.solve(1e-6, 50_000).layer_peak(0).value();
        assert!(b > a, "tim peak {b} <= plain peak {a}");
    }

    #[test]
    fn power_rect_accounts_all_watts() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.1, 0.1, 0.6, 0.9, 12.5);
        g.add_power_rect(1, 0.0, 0.0, 1.0, 1.0, 2.5);
        assert!((g.total_power() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn cg_matches_the_reference_sor_solution() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.1, 0.2, 0.45, 0.7, 9.0);
        g.add_power_rect(1, 0.5, 0.0, 1.0, 0.5, 3.0);
        let reference = g.solve_sor(1e-10, 200_000);
        assert!(reference.residual < 1e-10);
        let t = g.solve_checked(1e-10, 1_000).unwrap();
        let worst =
            t.t.iter()
                .zip(&reference.t)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        assert!(worst < 1e-8, "worst cell differs by {worst:.3e} degC");
    }

    #[test]
    fn one_iteration_does_not_converge() {
        let mut g = two_layer_grid();
        g.add_power_rect(0, 0.0, 0.0, 0.25, 0.25, 10.0);
        assert!(matches!(
            g.solve_checked(1e-6, 1),
            Err(TemperatureError::DidNotConverge { .. })
        ));
    }
}
