from capsift.cli import main

raise SystemExit(main())
