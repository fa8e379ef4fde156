from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.9",
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
