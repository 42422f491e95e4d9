"""Faults for the tests that check that a verifier or a comparison catches
them: a solution with a shifted z2, and substitutes (by monkeypatch) that
feed the CLI such a solution or add a perturbation to U. The package
itself has no hook for them."""
from dataclasses import replace

from regime_extract import cli, control


def perturbed(sol, dz2):
    """Copy of the StoppingSolution sol with z2 shifted by dz2."""
    return replace(sol, z2=sol.z2 + dz2)


def shift_cli_z2(monkeypatch):
    """Make the CLI's solve_z return its solution with z2 shifted by 1e-3."""
    solve = cli.solve_z
    monkeypatch.setattr(cli, "solve_z",
                        lambda params: perturbed(solve(params), 1e-3))


def perturb_u(monkeypatch, pert):
    """Make control._u_surface add pert(x, y, i) to its U rows (order 0),
    at the states (x, y) it was given and the caller's regime i: U, U_report
    and verify_hjb then see U + pert, and U_x and U_xx are left as they
    are."""
    surface = control._u_surface

    def shifted(cs, x, y, series):
        out = surface(cs, x, y, series)
        for j, (i, order) in enumerate(series):
            if order == 0:
                out[j] = out[j] + pert(x, y, i)
        return out

    monkeypatch.setattr(control, "_u_surface", shifted)
