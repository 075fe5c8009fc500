import dataclasses

from sovkit.tolerances import DEFAULT


def test_scaled_multiplies_every_field():
    scaled = DEFAULT.scaled(3.0)
    for f in dataclasses.fields(DEFAULT):
        assert getattr(scaled, f.name) == 3.0 * getattr(DEFAULT, f.name), f.name
